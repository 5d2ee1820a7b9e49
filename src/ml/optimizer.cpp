#include "src/ml/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/ml/step_kernels.h"

namespace varbench::ml {

namespace {

// Adam's moment decay rates (Kingma & Ba 2015 defaults, the BERT recipe).
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;

void ensure_state(std::vector<std::vector<double>>& state, std::size_t layers,
                  const std::vector<math::Matrix>& shapes) {
  if (state.size() == layers) return;
  state.resize(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    state[i].assign(shapes[i].size(), 0.0);
  }
}

void ensure_bias_state(std::vector<std::vector<double>>& state,
                       std::size_t layers,
                       const std::vector<std::vector<double>>& shapes) {
  if (state.size() == layers) return;
  state.resize(layers);
  for (std::size_t i = 0; i < layers; ++i) {
    state[i].assign(shapes[i].size(), 0.0);
  }
}

/// Throws unless `state.buffers` is empty or holds `banks` banks of one
/// buffer per layer of `model`, the first half weight-shaped and the second
/// bias-shaped.
void check_buffers(const OptimizerState& state, const Mlp& model,
                   std::size_t banks, const char* who) {
  const auto& buffers = state.buffers;
  if (buffers.empty()) return;
  const std::size_t layers = model.num_layers();
  if (buffers.size() != banks * layers) {
    throw std::invalid_argument(std::string{who} + ": buffer count mismatch");
  }
  for (std::size_t k = 0; k < banks; ++k) {
    for (std::size_t i = 0; i < layers; ++i) {
      const std::size_t want = k < banks / 2 ? model.weights()[i].size()
                                             : model.biases()[i].size();
      if (buffers[k * layers + i].size() != want) {
        throw std::invalid_argument(std::string{who} +
                                    ": buffer size mismatch");
      }
    }
  }
}

}  // namespace

// Both steps run each layer's weights, then its biases, through the active
// step kernels (src/ml/step_kernels.h): the same operations per parameter,
// in the same order, on every ISA.

void SgdOptimizer::step(Mlp& model, const Gradients& g) {
  const std::size_t L = model.num_layers();
  ensure_state(weight_velocity_, L, model.weights());
  ensure_bias_state(bias_velocity_, L, model.biases());
  const auto& kernels = detail::active_step_kernels();
  detail::SgdArgs args;
  args.lr = current_lr();
  args.momentum = config_.momentum;
  args.weight_decay = config_.weight_decay;
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    args.n = model.weights()[i].size();
    args.w = model.weights()[i].data().data();
    args.grad = g.weights[i].data().data();
    args.vel = weight_velocity_[i].data();
    args.decay = true;
    kernels.sgd(args);
    args.n = model.biases()[i].size();
    args.w = model.biases()[i].data();
    args.grad = g.biases[i].data();
    args.vel = bias_velocity_[i].data();
    args.decay = false;  // weight decay applies to weights only
    kernels.sgd(args);
  }
}

OptimizerState SgdOptimizer::save_state() const {
  OptimizerState s;
  s.buffers = weight_velocity_;
  s.buffers.insert(s.buffers.end(), bias_velocity_.begin(),
                   bias_velocity_.end());
  s.lr_scale = lr_scale_;
  s.step_count = 0;
  return s;
}

void SgdOptimizer::load_state(const OptimizerState& state, const Mlp& model) {
  check_buffers(state, model, 2, "SgdOptimizer::load_state");
  const std::size_t half = state.buffers.size() / 2;
  weight_velocity_.assign(state.buffers.begin(), state.buffers.begin() + half);
  bias_velocity_.assign(state.buffers.begin() + half, state.buffers.end());
  lr_scale_ = state.lr_scale;
}

void AdamOptimizer::step(Mlp& model, const Gradients& g) {
  const std::size_t L = model.num_layers();
  ensure_state(m_w_, L, model.weights());
  ensure_state(v_w_, L, model.weights());
  ensure_bias_state(m_b_, L, model.biases());
  ensure_bias_state(v_b_, L, model.biases());
  ++t_;
  const auto& kernels = detail::active_step_kernels();
  detail::AdamArgs args;
  args.lr = current_lr();
  args.beta1 = kAdamBeta1;
  args.beta2 = kAdamBeta2;
  args.bc1 = 1.0 - std::pow(args.beta1, static_cast<double>(t_));
  args.bc2 = 1.0 - std::pow(args.beta2, static_cast<double>(t_));
  args.weight_decay = config_.weight_decay;
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    args.n = model.weights()[i].size();
    args.w = model.weights()[i].data().data();
    args.grad = g.weights[i].data().data();
    args.m = m_w_[i].data();
    args.v = v_w_[i].data();
    args.decay = true;
    kernels.adam(args);
    args.n = model.biases()[i].size();
    args.w = model.biases()[i].data();
    args.grad = g.biases[i].data();
    args.m = m_b_[i].data();
    args.v = v_b_[i].data();
    args.decay = false;  // weight decay applies to weights only
    kernels.adam(args);
  }
}

OptimizerState AdamOptimizer::save_state() const {
  OptimizerState s;
  for (const auto* bank : {&m_w_, &v_w_, &m_b_, &v_b_}) {
    s.buffers.insert(s.buffers.end(), bank->begin(), bank->end());
  }
  s.lr_scale = lr_scale_;
  s.step_count = t_;
  return s;
}

void AdamOptimizer::load_state(const OptimizerState& state,
                               const Mlp& model) {
  check_buffers(state, model, 4, "AdamOptimizer::load_state");
  const std::size_t quarter = state.buffers.size() / 4;
  auto it = state.buffers.begin();
  m_w_.assign(it, it + quarter);
  it += quarter;
  v_w_.assign(it, it + quarter);
  it += quarter;
  m_b_.assign(it, it + quarter);
  it += quarter;
  v_b_.assign(it, state.buffers.end());
  lr_scale_ = state.lr_scale;
  t_ = state.step_count;
}

}  // namespace varbench::ml
