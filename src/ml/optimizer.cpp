#include "src/ml/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace varbench::ml {

namespace {

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

// Both steps read every buffer and constant through locals: through the
// members, each store to a weight could change a constant or a buffer
// pointer as far as the compiler can tell, and the loops would not
// vectorize. Each element's operations and their order are unchanged.

void SgdOptimizer::step(Mlp& model, const Gradients& g) {
  const std::size_t L = model.num_layers();
  ensure_state(weight_velocity_, L, model.weights());
  ensure_bias_state(bias_velocity_, L, model.biases());
  const double lr = current_lr();
  const double momentum = config_.momentum;
  const double weight_decay = config_.weight_decay;
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    double* w = model.weights()[i].data().data();
    const double* gw = g.weights[i].data().data();
    double* vel = weight_velocity_[i].data();
    const std::size_t nw = model.weights()[i].size();
    for (std::size_t j = 0; j < nw; ++j) {
      const double grad = gw[j] + weight_decay * w[j];
      vel[j] = momentum * vel[j] + grad;
      w[j] -= lr * vel[j];
    }
    double* b = model.biases()[i].data();
    const double* gb = g.biases[i].data();
    double* bvel = bias_velocity_[i].data();
    const std::size_t nb = model.biases()[i].size();
    for (std::size_t j = 0; j < nb; ++j) {
      bvel[j] = momentum * bvel[j] + gb[j];
      b[j] -= lr * bvel[j];
    }
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
  const double lr = current_lr();
  const double b1 = config_.adam_beta1;
  const double b2 = config_.adam_beta2;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double weight_decay = config_.weight_decay;
  constexpr double kEps = 1e-8;
  for (std::size_t i = 0; i < L; ++i) {
    if (!model.layer_trainable(i)) continue;
    double* w = model.weights()[i].data().data();
    const double* gw = g.weights[i].data().data();
    double* m = m_w_[i].data();
    double* v = v_w_[i].data();
    const std::size_t nw = model.weights()[i].size();
    for (std::size_t j = 0; j < nw; ++j) {
      const double grad = gw[j] + weight_decay * w[j];
      m[j] = b1 * m[j] + (1.0 - b1) * grad;
      v[j] = b2 * v[j] + (1.0 - b2) * grad * grad;
      w[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + kEps);
    }
    double* b = model.biases()[i].data();
    const double* gb = g.biases[i].data();
    double* mb = m_b_[i].data();
    double* vb = v_b_[i].data();
    const std::size_t nb = model.biases()[i].size();
    for (std::size_t j = 0; j < nb; ++j) {
      mb[j] = b1 * mb[j] + (1.0 - b1) * gb[j];
      vb[j] = b2 * vb[j] + (1.0 - b2) * gb[j] * gb[j];
      b[j] -= lr * (mb[j] / bc1) / (std::sqrt(vb[j] / bc2) + kEps);
    }
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
