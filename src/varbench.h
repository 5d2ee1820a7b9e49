// varbench — umbrella header.
//
// A variance-aware machine-learning benchmarking library reproducing
// "Accounting for Variance in Machine Learning Benchmarks"
// (Bouthillier et al., MLSys 2021).
//
// Layering (each namespace is its own static library):
//   varbench::math        dense matrices, Cholesky/linear solvers
//   varbench::rngx        reproducible RNG + named variation-seed streams (ξ)
//   varbench::exec        deterministic parallel execution (thread pool,
//                         parallel_for, per-index-stream parallel_replicate)
//   varbench::stats       distributions, tests, bootstrap, P(A>B), sample size
//   varbench::ml          datasets, MLPs, optimizers, metrics, training (Opt)
//   varbench::hpo         search spaces, grid/random/Bayesian HPO (HOpt)
//   varbench::core        pipelines, splitters, IdealEst/FixHOptEst, Fig.1 study
//   varbench::compare     comparison criteria, §4.2 simulators, error rates
//   varbench::casestudies the five case-study analogues + paper calibrations
//   varbench::io          dependency-free JSON for specs and artifacts
//   varbench::study       experiments-as-data: StudySpec, ResultTable,
//                         run_study dispatch, shard/merge
//   varbench::report      consumer-side analysis: every statistic derivable
//                         from any ResultTable, rendered text/md/csv/json
#pragma once

#include "src/casestudies/calibration.h"      // IWYU pragma: export
#include "src/casestudies/mlp_pipeline.h"     // IWYU pragma: export
#include "src/casestudies/registry.h"         // IWYU pragma: export
#include "src/compare/criteria.h"             // IWYU pragma: export
#include "src/compare/error_rates.h"          // IWYU pragma: export
#include "src/compare/fixed_models.h"          // IWYU pragma: export
#include "src/compare/multiple.h"             // IWYU pragma: export
#include "src/compare/simulation.h"           // IWYU pragma: export
#include "src/core/estimators.h"              // IWYU pragma: export
#include "src/core/pipeline.h"                // IWYU pragma: export
#include "src/core/splitter.h"                // IWYU pragma: export
#include "src/core/variance_study.h"          // IWYU pragma: export
#include "src/exec/exec.h"                    // IWYU pragma: export
#include "src/hpo/bayesopt.h"                 // IWYU pragma: export
#include "src/io/json.h"                      // IWYU pragma: export
#include "src/hpo/gp.h"                       // IWYU pragma: export
#include "src/hpo/hpo.h"                      // IWYU pragma: export
#include "src/hpo/space.h"                    // IWYU pragma: export
#include "src/math/linalg.h"                  // IWYU pragma: export
#include "src/math/matrix.h"                  // IWYU pragma: export
#include "src/ml/augment.h"                   // IWYU pragma: export
#include "src/ml/dataset.h"                   // IWYU pragma: export
#include "src/ml/init.h"                      // IWYU pragma: export
#include "src/ml/metrics.h"                   // IWYU pragma: export
#include "src/ml/mlp.h"                       // IWYU pragma: export
#include "src/ml/optimizer.h"                 // IWYU pragma: export
#include "src/ml/repro_audit.h"               // IWYU pragma: export
#include "src/ml/synthetic.h"                 // IWYU pragma: export
#include "src/ml/train.h"                     // IWYU pragma: export
#include "src/ml/trainer.h"                   // IWYU pragma: export
#include "src/report/artifact.h"              // IWYU pragma: export
#include "src/report/render.h"                // IWYU pragma: export
#include "src/report/report_spec.h"           // IWYU pragma: export
#include "src/report/summary.h"               // IWYU pragma: export
#include "src/rngx/rng.h"                     // IWYU pragma: export
#include "src/rngx/variation.h"               // IWYU pragma: export
#include "src/stats/bootstrap.h"              // IWYU pragma: export
#include "src/stats/descriptive.h"            // IWYU pragma: export
#include "src/stats/distributions.h"          // IWYU pragma: export
#include "src/stats/multi_dataset.h"          // IWYU pragma: export
#include "src/stats/prob_outperform.h"        // IWYU pragma: export
#include "src/stats/sample_size.h"            // IWYU pragma: export
#include "src/stats/shapiro_wilk.h"           // IWYU pragma: export
#include "src/stats/tests.h"                  // IWYU pragma: export
#include "src/study/result_table.h"           // IWYU pragma: export
#include "src/study/study_kinds.h"            // IWYU pragma: export
#include "src/study/study_runner.h"           // IWYU pragma: export
#include "src/study/study_spec.h"             // IWYU pragma: export
