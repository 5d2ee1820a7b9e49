#include "src/ml/train.h"

#include <atomic>
#include <utility>

#include "src/ml/trainer.h"

namespace varbench::ml {

namespace {

// Process-global counter driving the (deliberately) unseeded numerical-noise
// stream. See TrainConfig::numerical_noise_std.
std::atomic<std::uint64_t> g_numerical_noise_counter{0x517CC1B727220A95ULL};

}  // namespace

Mlp train_mlp(const Dataset& train, const TrainConfig& config,
              const rngx::VariationSeeds& seeds) {
  Trainer trainer{train, config, seeds};
  trainer.run_to_completion();
  Mlp model = std::move(trainer).release_model();
  if (config.numerical_noise_std > 0.0) {
    rngx::Rng noise_rng{
        g_numerical_noise_counter.fetch_add(1, std::memory_order_relaxed)};
    for (auto& w : model.weights()) {
      for (double& v : w.data()) {
        v += noise_rng.normal(0.0, config.numerical_noise_std);
      }
    }
  }
  return model;
}

double mean_loss(const Mlp& model, const Dataset& data, LossKind loss) {
  const math::Matrix logits = model.forward(data.x);
  math::Matrix grad;
  if (loss == LossKind::kSoftmaxCrossEntropy) {
    return softmax_cross_entropy(logits, data.y, grad);
  }
  return mse_loss(logits, data.y, grad);
}

}  // namespace varbench::ml
