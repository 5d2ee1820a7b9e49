#include "src/core/variance_study.h"

#include <memory>
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

VarianceStudyResult PlannedVarianceStudy::result() const {
  VarianceStudyResult result;
  for (const auto& row : rows) {
    result.rows.push_back(summarize(
        row.source, row.label,
        row.repeat > 0 ? std::vector<double>(row.repeat, row.measures->front())
                       : *row.measures));
  }
  return result;
}

PlannedVarianceStudy add_variance_study(exec::ReplicatePlan& plan,
                                        const LearningPipeline& pipeline,
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
  PlannedVarianceStudy planned;
  const auto add_row = [&](rngx::VariationSource source, std::string label,
                           const std::vector<double>& measures) {
    planned.rows.push_back({source, std::move(label), &measures});
  };
  // The probes' closures copy what they use: the plan runs after this
  // function returns.
  const rngx::VariationSeeds base;  // all seeds fixed to defaults
  const hpo::ParamPoint defaults = pipeline.default_params();

  const exec::IndexRange reps = slice(config.repetitions);

  // A probe that would train the base fit once per repetition repeats one
  // base fit's measure instead (see the header); its master draw stays.
  const bool pure =
      !pipeline.reads(rngx::VariationSource::kNumerical, defaults);
  const auto repeats_base_fit = [&](rngx::VariationSource source) {
    return pure && !pipeline.reads(source, defaults) && reps.size() > 0;
  };
  const auto base_fit = [&pipeline, &pool, &splitter, defaults,
                         base](std::size_t, rngx::Rng&) {
    return measure_with_params(pipeline, pool, splitter, defaults, base);
  };
  const std::vector<double>* base_measure = nullptr;  // added on first use
  const auto add_base_fit_row = [&](rngx::VariationSource source,
                                    const char* label) {
    (void)master.next_u64();
    if (base_measure == nullptr) {
      base_measure = &plan.add<double>(exec::IndexRange{0, 1},
                                       /*master_seed=*/0, "base_fit",
                                       base_fit);
    }
    planned.rows.push_back({source, label, base_measure, reps.size()});
  };

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
    if (repeats_base_fit(probe.source)) {
      add_base_fit_row(probe.source, probe.label);
      continue;
    }
    add_row(probe.source, probe.label,
            plan.add<double>(
                reps, master.next_u64(), rngx::to_string(probe.source),
                [&pipeline, &pool, &splitter, defaults, base,
                 source = probe.source](std::size_t, rngx::Rng& rng) {
                  const auto seeds = base.with_randomized(source, rng);
                  return measure_with_params(pipeline, pool, splitter,
                                             defaults, seeds);
                }));
  }

  if (config.include_numerical_noise) {
    // All seeds fixed; any remaining fluctuation is "numerical noise".
    if (repeats_base_fit(rngx::VariationSource::kNumerical)) {
      add_base_fit_row(rngx::VariationSource::kNumerical, "Numerical noise");
    } else {
      add_row(rngx::VariationSource::kNumerical, "Numerical noise",
              plan.add<double>(reps, master.next_u64(), "numerical_noise",
                               base_fit));
    }
  }

  // ξH probes: independent HOpt runs with all ξO fixed; each run's best λ̂*
  // is then measured once under the fixed ξO.
  for (const auto& algo_name : config.hpo_algorithms) {
    const std::shared_ptr<const hpo::HpoAlgorithm> algorithm =
        hpo::make_hpo_algorithm(algo_name);
    HpoRunConfig hpo_cfg;
    hpo_cfg.algorithm = algorithm.get();
    hpo_cfg.budget = config.hpo_budget;
    // The plan owns the hardware; HOpt's trial loop stays serial inside
    // each repetition to avoid oversubscription.
    hpo_cfg.exec = config.exec.inline_view();
    add_row(rngx::VariationSource::kHpo, std::string{algorithm->name()},
            plan.add<double>(
                slice(config.hpo_repetitions), master.next_u64(), algo_name,
                [&pipeline, &pool, &splitter, base, algorithm,
                 hpo_cfg](std::size_t, rngx::Rng& rng) {
                  return run_pipeline_once(
                      pipeline, pool, splitter, hpo_cfg,
                      base.with_randomized(rngx::VariationSource::kHpo, rng));
                }));
  }
  return planned;
}

VarianceStudyResult run_variance_study(const LearningPipeline& pipeline,
                                       const ml::Dataset& pool,
                                       const Splitter& splitter,
                                       const VarianceStudyConfig& config,
                                       rngx::Rng& master) {
  exec::ReplicatePlan plan;
  const PlannedVarianceStudy planned =
      add_variance_study(plan, pipeline, pool, splitter, config, master);
  plan.run(config.exec);
  return planned.result();
}

}  // namespace varbench::core
