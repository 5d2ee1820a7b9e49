#include "src/ml/trainer.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace varbench::ml {

namespace {

const Dataset& checked_train_set(const Dataset& train) {
  if (train.empty()) throw std::invalid_argument("Trainer: empty train set");
  validate(train);
  return train;
}

MlpConfig resolve_model_config(const Dataset& train, MlpConfig cfg,
                               LossKind loss) {
  if (cfg.input_dim == 0) cfg.input_dim = train.dim();
  if (cfg.output_dim == 0) {
    cfg.output_dim =
        train.kind == TaskKind::kClassification ? train.num_classes : 1;
  }
  if (loss == LossKind::kSoftmaxCrossEntropy &&
      train.kind != TaskKind::kClassification) {
    throw std::invalid_argument("Trainer: CE loss needs classification data");
  }
  return cfg;
}

Mlp make_model(const Dataset& train, const TrainConfig& config,
               const rngx::VariationSeeds& seeds) {
  auto init_rng = seeds.rng_for(rngx::VariationSource::kWeightInit);
  return Mlp{resolve_model_config(train, config.model, config.loss), init_rng};
}

std::unique_ptr<Optimizer> make_optimizer(const TrainConfig& config) {
  if (config.optimizer == OptimizerKind::kSgd) {
    return std::make_unique<SgdOptimizer>(config.opt);
  }
  return std::make_unique<AdamOptimizer>(config.opt);
}

}  // namespace

Trainer::Trainer(const Dataset& train, TrainConfig config,
                 const rngx::VariationSeeds& seeds)
    : train_{checked_train_set(train)},
      config_{std::move(config)},
      model_{make_model(train, config_, seeds)},
      optimizer_{make_optimizer(config_)},
      order_rng_{seeds.rng_for(rngx::VariationSource::kDataOrder)},
      dropout_rng_{seeds.rng_for(rngx::VariationSource::kDropout)},
      augment_rng_{seeds.rng_for(rngx::VariationSource::kDataAugment)},
      order_(train.size()) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
}

void Trainer::run_epoch() {
  if (finished()) throw std::logic_error("Trainer::run_epoch: already done");
  const std::size_t n = train_.size();
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  order_rng_.shuffle(order_);

  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t end = std::min(start + batch, n);
    const std::span<const std::size_t> idx{order_.data() + start, end - start};
    ws_.batch.resize(idx.size(), train_.dim());
    ws_.targets.resize(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const auto src = train_.x.row(idx[i]);
      std::copy(src.begin(), src.end(), ws_.batch.row(i).begin());
      ws_.targets[i] = train_.y[idx[i]];
    }
    if (is_active(config_.augment)) {
      augment_batch(ws_.batch, config_.augment, augment_rng_);
    }
    const math::Matrix& logits = model_.forward_train(ws_, dropout_rng_);
    if (config_.loss == LossKind::kSoftmaxCrossEntropy) {
      (void)softmax_cross_entropy(logits, ws_.targets, ws_.delta[0]);
    } else {
      (void)mse_loss(logits, ws_.targets, ws_.delta[0]);
    }
    model_.backward(ws_);
    optimizer_->step(model_, ws_.grads);
  }
  optimizer_->end_epoch();
  ++epoch_;
}

void Trainer::run_to_completion() {
  while (!finished()) run_epoch();
}

TrainerCheckpoint Trainer::checkpoint() const {
  TrainerCheckpoint c;
  c.epoch = epoch_;
  c.weights = model_.weights();
  c.biases = model_.biases();
  c.optimizer = optimizer_->save_state();
  c.order_rng = order_rng_.save_state();
  c.dropout_rng = dropout_rng_.save_state();
  c.augment_rng = augment_rng_.save_state();
  c.order = order_;
  return c;
}

void Trainer::restore(const TrainerCheckpoint& ckpt) {
  const std::size_t layers = model_.num_layers();
  if (ckpt.weights.size() != layers || ckpt.biases.size() != layers) {
    throw std::invalid_argument("Trainer::restore: layer count mismatch");
  }
  for (std::size_t i = 0; i < layers; ++i) {
    const math::Matrix& w = model_.weights()[i];
    if (ckpt.weights[i].rows() != w.rows() ||
        ckpt.weights[i].cols() != w.cols()) {
      throw std::invalid_argument("Trainer::restore: weight shape mismatch");
    }
    if (ckpt.biases[i].size() != model_.biases()[i].size()) {
      throw std::invalid_argument("Trainer::restore: bias shape mismatch");
    }
  }
  if (ckpt.order.size() != order_.size()) {
    throw std::invalid_argument("Trainer::restore: dataset size mismatch");
  }
  std::vector<bool> seen(order_.size(), false);
  for (const std::size_t i : ckpt.order) {
    if (i >= seen.size() || seen[i]) {
      throw std::invalid_argument("Trainer::restore: order is not a "
                                  "permutation of the dataset's rows");
    }
    seen[i] = true;
  }
  optimizer_->load_state(ckpt.optimizer, model_);
  order_ = ckpt.order;
  epoch_ = ckpt.epoch;
  model_.weights() = ckpt.weights;
  model_.biases() = ckpt.biases;
  order_rng_.load_state(ckpt.order_rng);
  dropout_rng_.load_state(ckpt.dropout_rng);
  augment_rng_.load_state(ckpt.augment_rng);
}

}  // namespace varbench::ml
