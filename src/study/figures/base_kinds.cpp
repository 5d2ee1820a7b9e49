// Three of the original five study kinds: the paired comparison, one HOpt
// run and the estimator sweep, each on one case study (docs/study_api.md).
// The variance-source decomposition shares Fig. 1's code in
// fig_variance.cpp, and the detection simulation Fig. 6's in
// fig_detection.cpp.
#include <stdexcept>
#include <utility>

#include "src/core/estimators.h"
#include "src/rngx/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

void require_unsharded(const StudySpec& spec, std::string_view why) {
  if (!spec.shard.is_unsharded()) {
    throw std::invalid_argument(
        "study '" + std::string{to_string(spec.kind)} + "' cannot be " +
        "sharded: " + std::string{why} + " (drop --shard / the shard block)");
  }
}

/// The paired configurations of the comparison study: A = pipeline
/// defaults, B = defaults with the learning rate scaled by lr_mult (or, for
/// spaces without a learning rate, a 100× weight-decay bump).
std::pair<hpo::ParamPoint, hpo::ParamPoint> compare_configs(
    const core::LearningPipeline& pipeline, double lr_mult) {
  auto params_a = pipeline.default_params();
  auto params_b = params_a;
  if (params_b.count("learning_rate") != 0) {
    params_b["learning_rate"] *= lr_mult;
  } else if (params_b.count("weight_decay") != 0) {
    params_b["weight_decay"] = std::min(1.0, params_b["weight_decay"] * 100.0);
  }
  return {std::move(params_a), std::move(params_b)};
}

struct EstimatorName {
  std::string_view name;
  bool ideal;
  core::RandomizeSubset subset;
};

constexpr EstimatorName kEstimatorNames[] = {
    {"ideal", true, core::RandomizeSubset::kAll},
    {"fix_init", false, core::RandomizeSubset::kInit},
    {"fix_data", false, core::RandomizeSubset::kData},
    {"fix_all", false, core::RandomizeSubset::kAll},
};

const EstimatorName& estimator_by_name(const std::string& name) {
  for (const auto& e : kEstimatorNames) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument(
      "study 'estimator': unknown estimator '" + name +
      "' (known: 'ideal', 'fix_init', 'fix_data', 'fix_all')");
}

}  // namespace

// -------------------------------------------------------------- compare

ResultTable run_compare(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto [params_a, params_b] =
      compare_configs(*cs.pipeline, spec.figure.lr_mult);

  rngx::Rng master{spec.seed};
  struct PairedMeasure {
    double a = 0.0;
    double b = 0.0;
  };
  // Paired runs are independent given per-run streams; fan them out. Both
  // configurations see the same ξ within a run (App. C.2 pairing).
  RowPlan rows{spec, {"rep", "perf_a", "perf_b"}};
  rows.replicates<PairedMeasure>(
      spec.repetitions, 1, master.next_u64(), "compare",
      [&](std::size_t, rngx::Rng& run_rng) {
        const auto seeds = rngx::VariationSeeds::random(run_rng);
        return PairedMeasure{
            core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                      params_a, seeds),
            core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                      params_b, seeds)};
      },
      [](std::size_t rep, const PairedMeasure& m, std::size_t) {
        return Row{Cell{rep}, Cell{m.a}, Cell{m.b}};
      });
  return rows.run();
}

std::vector<ResultTable> summarize_compare(const ResultTable& t) {
  const StudySpec& spec = t.spec.value();
  const auto pa = t.column_values("perf_a");
  const auto pb = t.column_values("perf_b");
  // Reproduce the run's RNG bookkeeping from the spec alone: the runner
  // drew exactly one u64 for the replicate stream before the legacy code
  // split off the test stream — so the summary of a merged artifact is the
  // summary the unsharded process would have printed.
  rngx::Rng master{spec.seed};
  (void)master.next_u64();
  auto rng = master.split("test");
  const auto r = stats::test_probability_of_outperforming(
      exec::ExecContext{}, pa, pb, rng, spec.figure.gamma,
      spec.figure.num_resamples);
  ResultTable block = summary_block(
      "paired comparison",
      {"mean A", "mean B", "P(A>B)", "ci.lo", "ci.hi", "gamma", "conclusion"});
  block.add_row({Cell{stats::mean(pa)}, Cell{stats::mean(pb)},
                 Cell{r.p_a_greater_b}, Cell{r.ci.lower}, Cell{r.ci.upper},
                 Cell{spec.figure.gamma},
                 Cell{std::string{stats::to_string(r.conclusion)}}});
  return {std::move(block)};
}

// ------------------------------------------------------------------ hpo

ResultTable run_hpo(const StudySpec& spec) {
  require_unsharded(spec,
                    "one HOpt run is inherently sequential; use the "
                    "variance study's hpo rows for HOpt replicates");
  if (spec.repetitions != 1) {
    throw std::invalid_argument(
        "study 'hpo': repetitions must be 1 (one tuning run); for HOpt "
        "variance use kind 'variance' with params.hpo_algorithms");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.figure.algo);
  core::HpoRunConfig cfg;
  cfg.algorithm = algo.get();
  cfg.budget = spec.figure.budget;
  cfg.exec = exec_of(spec);
  rngx::VariationSeeds seeds;
  seeds.hpo = spec.seed;
  core::FitCounter fits;
  const double perf = core::run_pipeline_once(*cs.pipeline, *cs.pool,
                                              *cs.splitter, cfg, seeds, &fits);
  RowPlan rows{spec, {"rep", "algo", "metric", "measure", "fits"}};
  const Row row{Cell{std::size_t{0}}, Cell{std::string{algo->name()}},
                Cell{std::string{ml::to_string(cs.pipeline->metric())}},
                Cell{perf}, Cell{fits.fits.load()}};
  rows.group(1, 1, [row](std::size_t, std::size_t) { return row; });
  return rows.run();
}

std::vector<ResultTable> summarize_hpo(const ResultTable& t) {
  const auto row = t.rows.at(0);
  ResultTable block = summary_block(
      "one HOpt run", {"algo", "case study", "metric", "final test", "fits"});
  block.add_row({Cell{row[t.column_index("algo")].as_string()},
                 Cell{t.spec.value().case_study},
                 Cell{row[t.column_index("metric")].as_string()},
                 Cell{row[t.column_index("measure")].as_double()},
                 Cell{row[t.column_index("fits")].as_uint64()}});
  return {std::move(block)};
}

// ------------------------------------------------------------ estimator

ResultTable run_estimator(const StudySpec& spec) {
  if (spec.figure.estimators.empty()) {
    throw std::invalid_argument("study 'estimator': params.estimators empty");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.figure.hpo_algo);
  core::HpoRunConfig hpo_cfg;
  hpo_cfg.algorithm = algo.get();
  hpo_cfg.budget = spec.figure.hpo_budget;

  RowPlan rows{spec, {"estimator", "rep", "measure"}};
  const std::size_t k = spec.repetitions;
  const auto slice = rows.slice(k);
  for (const auto& name : spec.figure.estimators) {
    const EstimatorName& est = estimator_by_name(name);
    // Per-estimator master stream derived from (seed, name): independent of
    // the estimator order and identical in every shard.
    rngx::Rng master{rngx::derive_seed(spec.seed, name)};
    auto result =
        est.ideal
            ? core::ideal_estimator(exec_of(spec), *cs.pipeline, *cs.pool,
                                    *cs.splitter, hpo_cfg, k, slice, master)
            : core::fix_hopt_estimator(exec_of(spec), *cs.pipeline, *cs.pool,
                                       *cs.splitter, hpo_cfg, k, est.subset,
                                       slice, master);
    rows.group(k, 1,
               [name, measures = std::move(result.measures),
                begin = slice.begin](std::size_t rep, std::size_t) {
                 return Row{Cell{name}, Cell{rep},
                            Cell{measures.at(rep - begin)}};
               });
  }
  return rows.run();
}

std::vector<ResultTable> summarize_estimator(const ResultTable& t) {
  ResultTable block =
      summary_block("estimators", {"estimator", "k", "mean", "std"});
  for (const RowGroup& est : group_rows(t, {"estimator"})) {
    const auto measures = est.values("measure");
    block.add_row({Cell{est.cell("estimator").as_string()},
                   Cell{measures.size()}, Cell{stats::mean(measures)},
                   Cell{stats::stddev(measures)}});
  }
  return {std::move(block)};
}

}  // namespace varbench::study::figures
