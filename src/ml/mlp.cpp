#include "src/ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/ml/step_kernels.h"

namespace varbench::ml {

namespace {
// Seed of the shared "pretrained checkpoint" stream for frozen first layers.
constexpr std::uint64_t kFrozenBackboneSeed = 0xFEEDFACECAFEBEEFULL;
}  // namespace

Mlp::Mlp(MlpConfig config, rngx::Rng& init_rng) : config_{std::move(config)} {
  if (config_.input_dim == 0 || config_.output_dim == 0) {
    throw std::invalid_argument("Mlp: zero input or output dim");
  }
  if (!(config_.dropout >= 0.0 && config_.dropout < 1.0)) {
    throw std::invalid_argument("Mlp: dropout must be in [0, 1)");
  }
  std::vector<std::size_t> dims;
  dims.push_back(config_.input_dim);
  dims.insert(dims.end(), config_.hidden.begin(), config_.hidden.end());
  dims.push_back(config_.output_dim);

  rngx::Rng frozen_rng{kFrozenBackboneSeed};
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    math::Matrix w{dims[i + 1], dims[i]};
    rngx::Rng& rng = layer_trainable(i) ? init_rng : frozen_rng;
    initialize_weights(w, config_.init, rng, config_.init_sigma);
    weights_.push_back(std::move(w));
    biases_.emplace_back(dims[i + 1], 0.0);
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    n += weights_[i].size() + biases_[i].size();
  }
  return n;
}

namespace {

/// pre += bias row by row, then, for a hidden layer, hidden = ReLU(pre)
/// times `mask` when one is given, through the active step kernels.
void dense_epilogue(math::Matrix& pre, const std::vector<double>& bias,
                    math::Matrix* hidden, const math::Matrix* mask) {
  detail::ForwardArgs args;
  args.rows = pre.rows();
  args.cols = pre.cols();
  args.pre = pre.data().data();
  args.bias = bias.data();
  if (hidden != nullptr) {
    hidden->resize(pre.rows(), pre.cols());
    args.hidden = hidden->data().data();
  }
  if (mask != nullptr) args.mask = mask->data().data();
  detail::active_step_kernels().forward(args);
}

/// out = softmax(in), one row; `out` may be `in`.
void softmax_row(std::span<const double> in, std::span<double> out) {
  const double mx = *std::max_element(in.begin(), in.end());
  double sum = 0.0;
  for (std::size_t c = 0; c < in.size(); ++c) {
    out[c] = std::exp(in[c] - mx);
    sum += out[c];
  }
  for (double& v : out) v /= sum;
}

}  // namespace

math::Matrix Mlp::forward(const math::Matrix& batch) const {
  const std::size_t L = weights_.size();
  math::Matrix pre;
  math::Matrix h;
  for (std::size_t i = 0; i < L; ++i) {
    // input (B×in) · wᵀ (in×out)
    math::matmul_nt(i == 0 ? batch : h, weights_[i], pre);
    dense_epilogue(pre, biases_[i], i + 1 < L ? &h : nullptr, nullptr);
  }
  return pre;
}

const math::Matrix& Mlp::forward_train(TrainWorkspace& ws,
                                       rngx::Rng& dropout_rng) const {
  const std::size_t L = weights_.size();
  const bool dropout = config_.dropout > 0.0;
  ws.pre.resize(L);
  ws.hidden.resize(L - 1);
  ws.dropout_mask.resize(dropout ? L - 1 : 0);
  for (std::size_t i = 0; i < L; ++i) {
    math::Matrix& pre = ws.pre[i];
    math::matmul_nt(i == 0 ? ws.batch : ws.hidden[i - 1], weights_[i], pre);
    if (i + 1 == L) {
      dense_epilogue(pre, biases_[i], nullptr, nullptr);  // the logits
      break;
    }
    math::Matrix* mask = nullptr;
    if (dropout) {
      // Inverted dropout: scale at train time so inference needs no change.
      // One serial pass draws the whole mask, row-major, before the
      // vectorized epilogue reads it.
      mask = &ws.dropout_mask[i];
      mask->resize(pre.rows(), pre.cols());
      const double keep = 1.0 - config_.dropout;
      for (double& m : mask->data()) {
        m = dropout_rng.bernoulli(keep) ? 1.0 / keep : 0.0;
      }
    }
    dense_epilogue(pre, biases_[i], &ws.hidden[i], mask);
  }
  return ws.pre.back();
}

void Mlp::backward(TrainWorkspace& ws) const {
  const std::size_t L = weights_.size();
  ws.grads.weights.resize(L);
  ws.grads.biases.resize(L);
  const detail::StepKernels& kernels = detail::active_step_kernels();
  for (std::size_t ii = L; ii-- > 0;) {
    // d(loss)/d(pre-activation of layer ii).
    const math::Matrix& delta = ws.delta[(L - 1 - ii) % 2];
    if (layer_trainable(ii)) {
      math::matmul_tn(delta, ii == 0 ? ws.batch : ws.hidden[ii - 1],
                      ws.grads.weights[ii]);
      auto& gb = ws.grads.biases[ii];
      gb.resize(biases_[ii].size());
      kernels.bias_grad({delta.rows(), delta.cols(), delta.data().data(),
                         gb.data()});
    }
    // Only the first layer can be frozen: once the layer below is frozen,
    // or there is none, no gradient is left to compute.
    if (ii == 0 || !layer_trainable(ii - 1)) break;
    // Propagate to the previous layer: (delta · W_ii) ⊙ relu'(pre_{ii-1}),
    // times that layer's dropout mask. relu' is a select, not a branch,
    // written so that a NaN pre-activation passes its gradient through:
    // `pre > 0.0 ? v : 0.0` would zero it and move bits.
    math::Matrix& prev = ws.delta[(L - ii) % 2];
    math::matmul(delta, weights_[ii], prev);
    kernels.relu_grad(
        {prev.size(), ws.pre[ii - 1].data().data(),
         config_.dropout > 0.0 ? ws.dropout_mask[ii - 1].data().data()
                               : nullptr,
         prev.data().data()});
  }
}

math::Matrix softmax(const math::Matrix& logits) {
  math::Matrix p{logits.rows(), logits.cols()};
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    softmax_row(logits.row(r), p.row(r));
  }
  return p;
}

double softmax_cross_entropy(const math::Matrix& logits,
                             std::span<const double> labels,
                             math::Matrix& grad) {
  const std::size_t batch = logits.rows();
  if (labels.size() != batch) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  grad.resize(batch, logits.cols());
  double loss = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    if (label >= logits.cols()) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    auto grow = grad.row(r);
    softmax_row(logits.row(r), grow);
    loss -= std::log(std::max(grow[label], 1e-300));
    grow[label] -= 1.0;
    for (double& v : grow) v *= inv_b;
  }
  return loss * inv_b;
}

double mse_loss(const math::Matrix& pred, std::span<const double> targets,
                math::Matrix& grad) {
  const std::size_t batch = pred.rows();
  if (pred.cols() != 1 || targets.size() != batch) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  grad.resize(batch, 1);
  double loss = 0.0;
  const double inv_b = 1.0 / static_cast<double>(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const double diff = pred(r, 0) - targets[r];
    loss += diff * diff;
    grad(r, 0) = 2.0 * diff * inv_b;
  }
  return loss * inv_b;
}

}  // namespace varbench::ml
