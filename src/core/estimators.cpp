#include "src/core/estimators.h"

#include <stdexcept>

#include "src/stats/descriptive.h"

namespace varbench::core {

std::string_view to_string(RandomizeSubset subset) {
  switch (subset) {
    case RandomizeSubset::kInit:
      return "Init";
    case RandomizeSubset::kData:
      return "Data";
    case RandomizeSubset::kAll:
      return "All";
  }
  return "unknown";
}

namespace {

std::vector<rngx::VariationSource> sources_of(RandomizeSubset subset) {
  switch (subset) {
    case RandomizeSubset::kInit:
      return {rngx::VariationSource::kWeightInit};
    case RandomizeSubset::kData:
      return {rngx::VariationSource::kDataSplit};
    case RandomizeSubset::kAll:
      return {rngx::kLearningSources.begin(), rngx::kLearningSources.end()};
  }
  throw std::invalid_argument("sources_of: unknown subset");
}

EstimatorResult summarize(std::vector<double> measures, std::size_t fits) {
  EstimatorResult r;
  r.measures = std::move(measures);
  // An empty shard slice (range.begin == range.end) is legal; statistics
  // only mean something on the merged whole.
  r.mean = r.measures.empty() ? 0.0 : stats::mean(r.measures);
  r.stddev = r.measures.empty() ? 0.0 : stats::stddev(r.measures);
  r.fits = fits;
  return r;
}

void validate_k_and_range(const char* who, std::size_t k,
                          exec::IndexRange range) {
  if (k == 0) throw std::invalid_argument(std::string{who} + ": k == 0");
  if (range.begin > range.end || range.end > k) {
    throw std::invalid_argument(std::string{who} + ": range [" +
                                std::to_string(range.begin) + ", " +
                                std::to_string(range.end) +
                                ") outside [0, k=" + std::to_string(k) + ")");
  }
}

// Measurement fan-out owns the hardware; HOpt runs nested inside a parallel
// region stay serial to avoid oversubscription (results are unaffected —
// HPO trial evaluation is thread-count invariant too).
HpoRunConfig nested_hpo_config(const HpoRunConfig& hpo,
                               const exec::ExecContext& ctx) {
  HpoRunConfig inner = hpo;
  if (!ctx.is_serial()) inner.exec = ctx.inline_view();
  return inner;
}

}  // namespace

EstimatorResult ideal_estimator(const exec::ExecContext& ctx,
                                const LearningPipeline& pipeline,
                                const ml::Dataset& pool,
                                const Splitter& splitter,
                                const HpoRunConfig& hpo, std::size_t k,
                                exec::IndexRange range, rngx::Rng& master) {
  validate_k_and_range("ideal_estimator", k, range);
  FitCounter counter;
  const HpoRunConfig inner = nested_hpo_config(hpo, ctx);
  // Algorithm 1: fresh ξO and ξH per measurement, full HOpt each time; each
  // global index i draws its ξ from its own (master, tag, i) stream.
  auto measures = exec::parallel_replicate_range<double>(
      ctx, range, master.next_u64(), "ideal_estimator",
      [&](std::size_t, rngx::Rng& rng) {
        const auto seeds = rngx::VariationSeeds::random(rng);
        return run_pipeline_once(pipeline, pool, splitter, inner, seeds,
                                 &counter);
      });
  return summarize(std::move(measures), counter.fits);
}

EstimatorResult fix_hopt_estimator(const exec::ExecContext& ctx,
                                   const LearningPipeline& pipeline,
                                   const ml::Dataset& pool,
                                   const Splitter& splitter,
                                   const HpoRunConfig& hpo, std::size_t k,
                                   RandomizeSubset subset,
                                   exec::IndexRange range, rngx::Rng& master) {
  validate_k_and_range("fix_hopt_estimator", k, range);
  FitCounter counter;

  // Algorithm 2, stage 1: one split, one HOpt, fixing λ̂* for all
  // measurements. Always computed in full so that shard runs of stage 2
  // measure against the identical λ̂*.
  auto base_seeds = rngx::VariationSeeds::random(master);
  auto split_rng = base_seeds.rng_for(rngx::VariationSource::kDataSplit);
  const Split s = splitter.split(pool, split_rng);
  const auto [trainvalid, test] = materialize(pool, s);
  (void)test;
  const hpo::ParamPoint lambda =
      run_hpo(pipeline, trainvalid, hpo, base_seeds, &counter);

  // Stage 2: measurements re-randomizing only the chosen ξO subset, one
  // independent stream per global measurement index.
  const auto randomized = sources_of(subset);
  auto measures = exec::parallel_replicate_range<double>(
      ctx, range, master.next_u64(), "fix_hopt_estimator",
      [&](std::size_t, rngx::Rng& rng) {
        const auto seeds = base_seeds.with_randomized_set(randomized, rng);
        return measure_with_params(pipeline, pool, splitter, lambda, seeds,
                                   &counter);
      });
  return summarize(std::move(measures), counter.fits);
}

std::size_t ideal_estimator_cost(std::size_t k, std::size_t t) {
  return k * (t + 1);
}

std::size_t fix_hopt_estimator_cost(std::size_t k, std::size_t t) {
  return k + t;
}

double biased_estimator_variance(double var_single, double rho,
                                 std::size_t k) {
  if (k == 0) throw std::invalid_argument("biased_estimator_variance: k == 0");
  const auto kd = static_cast<double>(k);
  return var_single / kd + (kd - 1.0) / kd * rho * var_single;
}

}  // namespace varbench::core
