// First-order optimizers: SGD with momentum / weight decay / exponential LR
// decay (the CIFAR-VGG11 recipe, paper Table 2) and Adam (the BERT recipe,
// Table 3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/ml/mlp.h"

namespace varbench::ml {

struct OptimizerConfig {
  double learning_rate = 0.01;
  double weight_decay = 0.0;  // L2 penalty, applied to weights only
  double momentum = 0.0;      // SGD only
  double lr_gamma = 1.0;      // per-epoch exponential decay factor
};

/// Serializable optimizer state: moment/velocity buffers + schedule
/// position. Checkpointing this (plus model weights and RNG states) makes
/// training resumable bit-exactly — the paper's Appendix A requirement.
struct OptimizerState {
  // Banks of one buffer per layer, weight-shaped banks first, then
  // bias-shaped ones (SGD: velocity; Adam: m and v); empty when saved
  // before the first step.
  std::vector<std::vector<double>> buffers;
  double lr_scale = 1.0;
  std::size_t step_count = 0;
};

/// Abstract per-model optimizer. step() consumes one batch's gradients.
class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig config) : config_{config} {}
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update to the model from gradients `g`.
  virtual void step(Mlp& model, const Gradients& g) = 0;

  [[nodiscard]] virtual OptimizerState save_state() const = 0;

  /// Adopt `state`. Throws std::invalid_argument, changing nothing, unless
  /// its buffers are empty or are this optimizer's banks (2 for SGD, 4 for
  /// Adam) shaped exactly like `model`'s layers.
  virtual void load_state(const OptimizerState& state, const Mlp& model) = 0;

  /// Called once per epoch: applies the exponential LR schedule.
  void end_epoch() { lr_scale_ *= config_.lr_gamma; }

  [[nodiscard]] double current_lr() const {
    return config_.learning_rate * lr_scale_;
  }
  [[nodiscard]] const OptimizerConfig& config() const noexcept {
    return config_;
  }

 protected:
  OptimizerConfig config_;
  double lr_scale_ = 1.0;
};

class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(OptimizerConfig config) : Optimizer{config} {}
  void step(Mlp& model, const Gradients& g) override;
  [[nodiscard]] OptimizerState save_state() const override;
  void load_state(const OptimizerState& state, const Mlp& model) override;

 private:
  std::vector<std::vector<double>> weight_velocity_;
  std::vector<std::vector<double>> bias_velocity_;
};

class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(OptimizerConfig config) : Optimizer{config} {}
  void step(Mlp& model, const Gradients& g) override;
  [[nodiscard]] OptimizerState save_state() const override;
  void load_state(const OptimizerState& state, const Mlp& model) override;

 private:
  std::vector<std::vector<double>> m_w_, v_w_, m_b_, v_b_;
  std::size_t t_ = 0;
};

}  // namespace varbench::ml
