#include "src/core/pipeline.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace varbench::core {

namespace {

/// The share of S_tv that HOpt holds out as S_v.
constexpr double kValidationFraction = 0.25;

}  // namespace

InnerSplit inner_split(const ml::Dataset& trainvalid, rngx::Rng& hpo_rng) {
  std::vector<std::size_t> order(trainvalid.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  hpo_rng.shuffle(order);
  const auto n_valid = std::max<std::size_t>(
      1, static_cast<std::size_t>(kValidationFraction *
                                  static_cast<double>(trainvalid.size())));
  if (n_valid >= trainvalid.size()) {
    throw std::invalid_argument(
        "inner_split: validation split leaves no train data");
  }
  const std::span<const std::size_t> valid_idx{order.data(), n_valid};
  const std::span<const std::size_t> train_idx{order.data() + n_valid,
                                               trainvalid.size() - n_valid};
  return {ml::subset(trainvalid, train_idx), ml::subset(trainvalid, valid_idx)};
}

hpo::ParamPoint run_hpo(const LearningPipeline& pipeline,
                        const ml::Dataset& trainvalid,
                        const HpoRunConfig& config,
                        const rngx::VariationSeeds& seeds,
                        FitCounter* counter) {
  if (config.algorithm == nullptr) return pipeline.default_params();
  auto hpo_rng = seeds.rng_for(rngx::VariationSource::kHpo);
  // The inner split is part of HOpt's arbitrary choices (ξH).
  const InnerSplit inner = inner_split(trainvalid, hpo_rng);
  const hpo::Objective objective = [&](const hpo::ParamPoint& lambda) {
    if (counter != nullptr) ++counter->fits;
    // Minimize risk = 1 - performance (metrics are higher-is-better).
    return 1.0 - pipeline.train_and_evaluate(inner.train, inner.valid, lambda,
                                             seeds);
  };
  const hpo::HpoResult result = config.algorithm->optimize(
      config.exec, pipeline.search_space(), objective, config.budget, hpo_rng);
  return result.best;
}

double run_pipeline_once(const LearningPipeline& pipeline,
                         const ml::Dataset& pool, const Splitter& splitter,
                         const HpoRunConfig& config,
                         const rngx::VariationSeeds& seeds,
                         FitCounter* counter) {
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const Split s = splitter.split(pool, split_rng);
  const auto [trainvalid, test] = materialize(pool, s);
  const hpo::ParamPoint lambda = run_hpo(pipeline, trainvalid, config, seeds,
                                         counter);
  if (counter != nullptr) ++counter->fits;  // the final retraining
  return pipeline.train_and_evaluate(trainvalid, test, lambda, seeds);
}

double measure_with_params(const LearningPipeline& pipeline,
                           const ml::Dataset& pool, const Splitter& splitter,
                           const hpo::ParamPoint& lambda,
                           const rngx::VariationSeeds& seeds,
                           FitCounter* counter) {
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const Split s = splitter.split(pool, split_rng);
  const auto [train, test] = materialize(pool, s);
  if (counter != nullptr) ++counter->fits;
  return pipeline.train_and_evaluate(train, test, lambda, seeds);
}

}  // namespace varbench::core
