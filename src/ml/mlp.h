// Multi-layer perceptron with ReLU hidden layers, optional dropout and an
// optionally frozen first layer (the "pretrained backbone" analogue used by
// the BERT/ResNet case studies). Forward/backward are hand-rolled on the
// Matrix substrate; no autograd.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "src/math/matrix.h"
#include "src/ml/init.h"
#include "src/rngx/rng.h"

namespace varbench::ml {

struct MlpConfig {
  // input_dim/output_dim of 0 mean "derive from the dataset" (train_mlp
  // fills them in); Mlp's constructor requires both to be resolved.
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden;  // hidden layer widths (may be empty)
  std::size_t output_dim = 0;
  double dropout = 0.0;  // drop probability after each hidden activation
  InitScheme init = InitScheme::kGlorotUniform;
  double init_sigma = 0.2;  // used by InitScheme::kNormalScaled
  // When true, the first layer is a fixed random projection that receives no
  // gradient — the frozen-encoder analogue of fine-tuning only a head.
  bool freeze_first_layer = false;
};

/// d(loss)/d(parameters), layer by layer. A frozen layer's entries stay
/// empty: no optimizer reads them.
struct Gradients {
  std::vector<math::Matrix> weights;
  std::vector<std::vector<double>> biases;
};

/// Every buffer a training step writes, owned by one fit and reused by all
/// of its steps: once the fit has seen its batch sizes, a step allocates
/// nothing. No buffer carries state from one step to the next.
struct TrainWorkspace {
  math::Matrix batch;           // layer 0's input (B×in); the caller fills it
  std::vector<double> targets;  // the batch's labels or regression targets
  std::vector<math::Matrix> pre;     // each layer's pre-activation; the last
                                     // one holds the logits
  std::vector<math::Matrix> hidden;  // hidden layer i's output after ReLU and
                                     // dropout: layer i+1's input
  std::vector<math::Matrix> dropout_mask;  // per hidden layer, if dropout > 0
  // Ping-pong d(loss)/d(pre-activation): the loss writes the logits'
  // gradient into delta[0], and backward() alternates from there.
  std::array<math::Matrix, 2> delta;
  Gradients grads;
};

class Mlp {
 public:
  /// Weights are drawn from `init_rng` (the ξO weight-init stream);
  /// a frozen first layer is drawn from a fixed internal stream so it is
  /// identical across reruns, like a shared pretrained checkpoint.
  Mlp(MlpConfig config, rngx::Rng& init_rng);

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t num_parameters() const noexcept;

  [[nodiscard]] std::vector<math::Matrix>& weights() noexcept {
    return weights_;
  }
  [[nodiscard]] const std::vector<math::Matrix>& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::vector<std::vector<double>>& biases() noexcept {
    return biases_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& biases()
      const noexcept {
    return biases_;
  }

  /// True when layer `i` receives gradient updates.
  [[nodiscard]] bool layer_trainable(std::size_t i) const {
    return !(config_.freeze_first_layer && i == 0);
  }

  /// Inference forward pass (no dropout): batch (B×in) → logits (B×out).
  [[nodiscard]] math::Matrix forward(const math::Matrix& batch) const;

  /// Training forward pass over `ws.batch`; dropout masks are drawn from
  /// `dropout_rng` (the ξO dropout stream), one draw per hidden activation,
  /// row-major, layer by layer. Records the pass in `ws` for backward() and
  /// returns the logits (B×out), which live in `ws`.
  const math::Matrix& forward_train(TrainWorkspace& ws,
                                    rngx::Rng& dropout_rng) const;

  /// Backpropagate `ws.delta[0]`, d(loss)/d(logits), through the pass
  /// forward_train() recorded in `ws`; writes `ws.grads` for every
  /// trainable layer.
  void backward(TrainWorkspace& ws) const;

 private:
  MlpConfig config_;
  std::vector<math::Matrix> weights_;          // layer i: (out_i × in_i)
  std::vector<std::vector<double>> biases_;    // layer i: (out_i)
};

/// Softmax cross-entropy over logits (B×C) with integer labels.
/// Returns mean loss; writes d(loss)/d(logits) into `grad` (resized in
/// place to B×C).
[[nodiscard]] double softmax_cross_entropy(const math::Matrix& logits,
                                           std::span<const double> labels,
                                           math::Matrix& grad);

/// Mean squared error over predictions (B×1). Writes the gradient into
/// `grad` (resized in place to B×1).
[[nodiscard]] double mse_loss(const math::Matrix& pred,
                              std::span<const double> targets,
                              math::Matrix& grad);

/// Row-wise softmax probabilities of logits.
[[nodiscard]] math::Matrix softmax(const math::Matrix& logits);

}  // namespace varbench::ml
