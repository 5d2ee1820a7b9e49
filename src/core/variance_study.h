// The §2.2 variance study: measure the performance fluctuation induced by
// each variation source in isolation, holding every other source fixed —
// the machinery behind Fig. 1 and the normality study of Fig. G.3.
#pragma once

#include <string>
#include <vector>

#include "src/core/estimators.h"
#include "src/core/pipeline.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_replicate.h"

namespace varbench::core {

struct SourceVariance {
  rngx::VariationSource source = rngx::VariationSource::kDataSplit;
  std::string label;                // display label ("Data (bootstrap)", …)
  std::vector<double> measures;     // raw performance measures
  double stddev = 0.0;
  double mean = 0.0;
};

struct VarianceStudyConfig {
  std::size_t repetitions = 50;  // paper: 200 per source
  // HPO variance probes (the ξH rows of Fig. 1): per algorithm name,
  // `hpo_repetitions` independent HOpt runs with everything else fixed.
  std::vector<std::string> hpo_algorithms;  // e.g. {"random_search", ...}
  std::size_t hpo_repetitions = 10;         // paper: 20
  std::size_t hpo_budget = 30;              // paper: 200 trials
  bool include_numerical_noise = true;
  // Repetitions are independent given per-index RNG streams; the study result
  // is bit-identical for every num_threads (see docs/determinism.md).
  exec::ExecContext exec;
  // Shard execution (docs/study_api.md): compute only the contiguous slice
  // shard_subrange(repetitions, shard_index, shard_count) of every
  // repetition loop (and likewise of the hpo_repetitions loops). Because
  // per-repetition RNG streams are keyed by the global repetition index,
  // each row's measures are bit-identical to the corresponding slice of the
  // unsharded run; concatenating the slices of all shards reconstructs it
  // exactly. Default 0/1 = the whole study.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

struct VarianceStudyResult {
  std::vector<SourceVariance> rows;

  /// The bootstrap (data-split) standard deviation — Fig. 1's normalizer.
  [[nodiscard]] double bootstrap_std() const;
};

/// A variance study whose repetition ranges wait in a caller's plan: one
/// row per probe, in result order, each pointing at the measures vector
/// the plan fills.
struct PlannedVarianceStudy {
  struct Row {
    rngx::VariationSource source = rngx::VariationSource::kDataSplit;
    std::string label;
    // One measure per repetition of the probe's slice — or, when `repeat`
    // is > 0, the base fit's one measure, which each of the slice's
    // `repeat` repetitions would have reproduced bit for bit.
    const std::vector<double>* measures = nullptr;
    std::size_t repeat = 0;
  };
  std::vector<Row> rows;

  /// The study's result; call it once the plan has run.
  [[nodiscard]] VarianceStudyResult result() const;
};

/// Add the study's repetition ranges to `plan` — its ξO probes, the
/// numerical-noise probe and its ξH probes, in that order — drawing their
/// master seeds from `master` now, as run_variance_study draws them.
/// A ξO or numerical-noise probe of a source the pipeline does not read
/// (LearningPipeline::reads at the defaults), under a pipeline that reads
/// no numerical noise, would train the base fit (defaults, base seeds)
/// once per repetition. It adds no range of its own: the base fit goes in
/// once per study, as a one-index range with an explicit seed that draws
/// nothing from `master`, and its measure is repeated over the probe's
/// slice. The probe still takes its one master draw, so every later probe
/// keeps its stream. `pipeline`, `pool` and `splitter` must outlive the
/// plan's run; the HOpt trial loops run inline on `config.exec`'s sink.
[[nodiscard]] PlannedVarianceStudy add_variance_study(
    exec::ReplicatePlan& plan, const LearningPipeline& pipeline,
    const ml::Dataset& pool, const Splitter& splitter,
    const VarianceStudyConfig& config, rngx::Rng& master);

/// Probe each ξO source (and numerical noise) with default hyperparameters:
/// for each source, re-randomize only that source `repetitions` times and
/// record the performance distribution. Then probe each requested HPO
/// algorithm: re-run HOpt with fresh ξH while ξO stays fixed. All probes
/// run as one plan on `config.exec`.
[[nodiscard]] VarianceStudyResult run_variance_study(
    const LearningPipeline& pipeline, const ml::Dataset& pool,
    const Splitter& splitter, const VarianceStudyConfig& config,
    rngx::Rng& master);

}  // namespace varbench::core
