#include "src/core/variance_study.h"

#include <stdexcept>

#include "src/exec/parallel_replicate.h"
#include "src/stats/descriptive.h"

namespace varbench::core {

double VarianceStudyResult::bootstrap_std() const {
  for (const auto& row : rows) {
    if (row.source == rngx::VariationSource::kDataSplit) return row.stddev;
  }
  throw std::logic_error("bootstrap_std: no data-split row in study");
}

namespace {

SourceVariance summarize(rngx::VariationSource source, std::string label,
                         std::vector<double> measures) {
  SourceVariance row;
  row.source = source;
  row.label = std::move(label);
  // A shard whose slice of this group is empty still yields a (rowless)
  // result; statistics only mean something on the merged whole.
  row.mean = measures.empty() ? 0.0 : stats::mean(measures);
  row.stddev = measures.empty() ? 0.0 : stats::stddev(measures);
  row.measures = std::move(measures);
  return row;
}

}  // namespace

VarianceStudyResult run_variance_study(const LearningPipeline& pipeline,
                                       const ml::Dataset& pool,
                                       const Splitter& splitter,
                                       const VarianceStudyConfig& config,
                                       rngx::Rng& master) {
  if (config.repetitions < 2) {
    throw std::invalid_argument("run_variance_study: repetitions < 2");
  }
  if (config.shard_count == 0 || config.shard_index >= config.shard_count) {
    throw std::invalid_argument(
        "run_variance_study: shard " + std::to_string(config.shard_index) +
        "/" + std::to_string(config.shard_count) +
        " (need shard_index < shard_count, shard_count >= 1)");
  }
  const auto slice = [&](std::size_t reps) {
    return exec::shard_subrange(reps, config.shard_index, config.shard_count);
  };
  VarianceStudyResult result;
  const rngx::VariationSeeds base;  // all seeds fixed to defaults
  const hpo::ParamPoint defaults = pipeline.default_params();

  struct ProbedSource {
    rngx::VariationSource source;
    const char* label;
  };
  static constexpr ProbedSource kProbes[] = {
      {rngx::VariationSource::kDataSplit, "Data (bootstrap)"},
      {rngx::VariationSource::kDataAugment, "Data augment"},
      {rngx::VariationSource::kDataOrder, "Data order"},
      {rngx::VariationSource::kWeightInit, "Weights init"},
      {rngx::VariationSource::kDropout, "Dropout"},
  };

  for (const auto& probe : kProbes) {
    auto measures = exec::parallel_replicate_range<double>(
        config.exec, slice(config.repetitions), master,
        rngx::to_string(probe.source), [&](std::size_t, rngx::Rng& rng) {
          const auto seeds = base.with_randomized(probe.source, rng);
          return measure_with_params(pipeline, pool, splitter, defaults, seeds);
        });
    result.rows.push_back(
        summarize(probe.source, probe.label, std::move(measures)));
  }

  if (config.include_numerical_noise) {
    // All seeds fixed; any remaining fluctuation is "numerical noise".
    auto measures = exec::parallel_replicate_range<double>(
        config.exec, slice(config.repetitions), master, "numerical_noise",
        [&](std::size_t, rngx::Rng&) {
          return measure_with_params(pipeline, pool, splitter, defaults, base);
        });
    result.rows.push_back(summarize(rngx::VariationSource::kNumerical,
                                    "Numerical noise", std::move(measures)));
  }

  // ξH probes: independent HOpt runs with all ξO fixed; each run's best λ̂*
  // is then measured once under the fixed ξO.
  for (const auto& algo_name : config.hpo_algorithms) {
    const auto algorithm = hpo::make_hpo_algorithm(algo_name);
    HpoRunConfig hpo_cfg;
    hpo_cfg.algorithm = algorithm.get();
    hpo_cfg.budget = config.hpo_budget;
    hpo_cfg.validation_fraction = config.validation_fraction;
    // The repetition loop owns the hardware; HOpt's trial loop stays serial
    // inside each repetition to avoid oversubscription.
    hpo_cfg.exec = config.exec.inline_view();
    auto measures = exec::parallel_replicate_range<double>(
        config.exec, slice(config.hpo_repetitions), master, algo_name,
        [&](std::size_t, rngx::Rng& rng) {
          const auto seeds =
              base.with_randomized(rngx::VariationSource::kHpo, rng);
          auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
          const Split s = splitter.split(pool, split_rng);
          const auto [trainvalid, test] = materialize(pool, s);
          const auto lambda = run_hpo(pipeline, trainvalid, hpo_cfg, seeds);
          return pipeline.train_and_evaluate(trainvalid, test, lambda, seeds);
        });
    result.rows.push_back(summarize(rngx::VariationSource::kHpo,
                                    std::string{algorithm->name()},
                                    std::move(measures)));
  }
  return result;
}

}  // namespace varbench::core
