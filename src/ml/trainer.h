// Resumable epoch-level trainer. The paper's Appendix A insists that a
// reproducible study must be able to interrupt a training after any epoch
// and resume it later with bit-identical results — which requires
// checkpointing model weights, optimizer buffers AND every RNG stream.
// Trainer packages that protocol, and train_mlp() is a Trainer run to
// completion: there is one training loop.
#pragma once

#include <memory>
#include <utility>

#include "src/ml/train.h"

namespace varbench::ml {

/// Complete serializable training state at an epoch boundary.
struct TrainerCheckpoint {
  std::size_t epoch = 0;
  std::vector<math::Matrix> weights;
  std::vector<std::vector<double>> biases;
  OptimizerState optimizer;
  rngx::RngState order_rng;
  rngx::RngState dropout_rng;
  rngx::RngState augment_rng;
  // The visit-order permutation is shuffled in place each epoch, so the
  // current arrangement is training state too — omitting it was exactly the
  // kind of resumption bug Appendix A's protocol is designed to catch.
  std::vector<std::size_t> order;
};

class Trainer {
 public:
  /// Initializes the model from the ξO weight-init stream, exactly as
  /// train_mlp() does.
  Trainer(const Dataset& train, TrainConfig config,
          const rngx::VariationSeeds& seeds);

  /// Run one epoch (shuffle → mini-batch steps → LR schedule tick).
  void run_epoch();

  /// Run until config.epochs have completed.
  void run_to_completion();

  [[nodiscard]] std::size_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool finished() const noexcept {
    return epoch_ >= config_.epochs;
  }
  [[nodiscard]] const Mlp& model() const noexcept { return model_; }
  [[nodiscard]] const TrainConfig& config() const noexcept { return config_; }

  /// Move the model out of a Trainer that is done with it.
  [[nodiscard]] Mlp release_model() && { return std::move(model_); }

  /// Snapshot everything needed to resume bit-exactly.
  [[nodiscard]] TrainerCheckpoint checkpoint() const;

  /// Restore a snapshot taken from a Trainer constructed with the same
  /// dataset, config and seeds. Throws std::invalid_argument, changing
  /// nothing, unless every weight and bias shape matches the model's, the
  /// optimizer buffers match them (Optimizer::load_state) and `order` is a
  /// permutation of the dataset's row indices.
  void restore(const TrainerCheckpoint& ckpt);

 private:
  const Dataset& train_;  // not owned; must outlive the Trainer
  TrainConfig config_;
  Mlp model_;
  std::unique_ptr<Optimizer> optimizer_;
  rngx::Rng order_rng_;
  rngx::Rng dropout_rng_;
  rngx::Rng augment_rng_;
  std::vector<std::size_t> order_;
  std::size_t epoch_ = 0;
  TrainWorkspace ws_;  // every step's buffers; not training state
};

}  // namespace varbench::ml
