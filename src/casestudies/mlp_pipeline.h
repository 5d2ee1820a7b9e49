// Concrete LearningPipeline backed by the MLP substrate. Hyperparameters
// from the search space are mapped onto the training configuration by name
// (learning_rate, weight_decay, momentum, lr_gamma, hidden, init_sigma,
// dropout) — the same dimensions as the paper's Tables 2/3/5/6.
#pragma once

#include <string>

#include "src/core/pipeline.h"
#include "src/ml/train.h"

namespace varbench::casestudies {

struct MlpPipelineSpec {
  std::string name;
  ml::TrainConfig base;      // architecture, optimizer kind, epochs, augment
  ml::Metric metric = ml::Metric::kAccuracy;
  hpo::SearchSpace space;
  hpo::ParamPoint defaults;  // Appendix D default hyperparameters
  double auc_threshold = 0.5;  // binarization threshold for Metric::kAuc
};

class MlpPipeline final : public core::LearningPipeline {
 public:
  explicit MlpPipeline(MlpPipelineSpec spec);

  [[nodiscard]] double train_and_evaluate(
      const ml::Dataset& train, const ml::Dataset& test,
      const hpo::ParamPoint& lambda,
      const rngx::VariationSeeds& seeds) const override;

  [[nodiscard]] const hpo::SearchSpace& search_space() const override {
    return spec_.space;
  }
  [[nodiscard]] hpo::ParamPoint default_params() const override {
    return spec_.defaults;
  }
  [[nodiscard]] std::string_view name() const override { return spec_.name; }
  [[nodiscard]] ml::Metric metric() const override { return spec_.metric; }

  /// From λ's resolved TrainConfig: augmentation is read iff it is active,
  /// dropout iff its rate is > 0, numerical noise iff its std is > 0. The
  /// HPO seed is never read (HOpt reads it, not the fit); every other
  /// source always is.
  [[nodiscard]] bool reads(rngx::VariationSource source,
                           const hpo::ParamPoint& lambda) const override;

  /// The training configuration that a given λ resolves to (exposed for
  /// tests and diagnostics).
  [[nodiscard]] ml::TrainConfig resolve_config(
      const hpo::ParamPoint& lambda) const;

 private:
  MlpPipelineSpec spec_;
};

}  // namespace varbench::casestudies
