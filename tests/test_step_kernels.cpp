// Every compiled variant of the training step's elementwise passes and
// optimizer updates (src/ml/step_kernels.h) against the scalar loops they
// replaced, kept here as the reference.
#include "src/ml/step_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/ml/mlp.h"
#include "src/ml/optimizer.h"
#include "src/ml/train.h"
#include "src/rngx/rng.h"

namespace varbench::ml {
namespace {

using math::Matrix;
using Vec = std::vector<double>;

// ------------------------------------------------ the loops, as they were

void loop_add_bias(Matrix& out, const Vec& b) {
  for (std::size_t r = 0; r < out.rows(); ++r) {
    auto row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) row[c] += b[c];
  }
}

/// forward_train's activation loop, the mask already drawn.
void loop_activation(const Matrix& pre, const Matrix* mask, Matrix& h) {
  h.resize(pre.rows(), pre.cols());
  const auto z = pre.data();
  const auto a = h.data();
  if (mask != nullptr) {
    const auto keep_mask = mask->data();
    for (std::size_t j = 0; j < a.size(); ++j) {
      a[j] = std::max(z[j], 0.0) * keep_mask[j];
    }
  } else {
    for (std::size_t j = 0; j < a.size(); ++j) a[j] = std::max(z[j], 0.0);
  }
}

void loop_bias_grad(const Matrix& delta, Vec& gb) {
  gb.assign(delta.cols(), 0.0);
  for (std::size_t r = 0; r < delta.rows(); ++r) {
    const auto row = delta.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) gb[c] += row[c];
  }
}

void loop_relu_grad(const Vec& z, const Vec* keep_mask, Vec& p) {
  if (keep_mask != nullptr) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] = (z[j] <= 0.0 ? 0.0 : p[j]) * (*keep_mask)[j];
    }
  } else {
    for (std::size_t j = 0; j < p.size(); ++j) {
      p[j] = z[j] <= 0.0 ? 0.0 : p[j];
    }
  }
}

struct Hyper {
  double lr = 0.01;
  double momentum = 0.9;
  double weight_decay = 1e-4;
  double b1 = 0.9;
  double b2 = 0.999;
  double bc1 = 1.0 - std::pow(0.9, 3.0);
  double bc2 = 1.0 - std::pow(0.999, 3.0);
};

void loop_sgd_weights(Vec& w, const Vec& gw, Vec& vel, const Hyper& h) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double grad = gw[j] + h.weight_decay * w[j];
    vel[j] = h.momentum * vel[j] + grad;
    w[j] -= h.lr * vel[j];
  }
}

void loop_sgd_biases(Vec& b, const Vec& gb, Vec& bvel, const Hyper& h) {
  for (std::size_t j = 0; j < b.size(); ++j) {
    bvel[j] = h.momentum * bvel[j] + gb[j];
    b[j] -= h.lr * bvel[j];
  }
}

void loop_adam_weights(Vec& w, const Vec& gw, Vec& m, Vec& v,
                       const Hyper& h) {
  constexpr double kEps = 1e-8;
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double grad = gw[j] + h.weight_decay * w[j];
    m[j] = h.b1 * m[j] + (1.0 - h.b1) * grad;
    v[j] = h.b2 * v[j] + (1.0 - h.b2) * grad * grad;
    w[j] -= h.lr * (m[j] / h.bc1) / (std::sqrt(v[j] / h.bc2) + kEps);
  }
}

void loop_adam_biases(Vec& b, const Vec& gb, Vec& mb, Vec& vb,
                      const Hyper& h) {
  constexpr double kEps = 1e-8;
  for (std::size_t j = 0; j < b.size(); ++j) {
    mb[j] = h.b1 * mb[j] + (1.0 - h.b1) * gb[j];
    vb[j] = h.b2 * vb[j] + (1.0 - h.b2) * gb[j] * gb[j];
    b[j] -= h.lr * (mb[j] / h.bc1) / (std::sqrt(vb[j] / h.bc2) + kEps);
  }
}

// ------------------------------------------------------------- operands

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// 15% +0.0, 15% -0.0, 5% subnormals, and each of +inf, -inf and NaN at
/// `non_finite_rate`; the rest standard normal.
double draw_value(rngx::Rng& rng, double non_finite_rate) {
  const double u = rng.uniform();
  if (u < 0.15) return 0.0;
  if (u < 0.30) return -0.0;
  if (u < 0.35) return rng.uniform(-1.0, 1.0) * 1e-310;
  if (u < 0.35 + non_finite_rate) return kInf;
  if (u < 0.35 + 2 * non_finite_rate) return -kInf;
  if (u < 0.35 + 3 * non_finite_rate) return kNaN;
  return rng.normal();
}

Vec draw_vec(std::size_t n, rngx::Rng& rng, double non_finite_rate = 0.02) {
  Vec v(n);
  for (double& x : v) x = draw_value(rng, non_finite_rate);
  return v;
}

Matrix draw_matrix(std::size_t rows, std::size_t cols, rngx::Rng& rng,
                   double non_finite_rate = 0.02) {
  return Matrix{rows, cols, draw_vec(rows * cols, rng, non_finite_rate)};
}

/// Elements whose bits differ from the loop's; NaN only has to be NaN
/// where the loop's is (its sign and payload are not pinned, as in GEMM).
std::size_t mismatches(std::span<const double> got,
                       std::span<const double> want) {
  if (got.size() != want.size()) return want.size() + 1;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool same = std::isnan(want[i])
                          ? std::isnan(got[i])
                          : std::bit_cast<std::uint64_t>(got[i]) ==
                                std::bit_cast<std::uint64_t>(want[i]);
    if (!same) ++bad;
  }
  return bad;
}

constexpr std::size_t kLengths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                                    11, 12, 13, 14, 15, 16, 17, 4099};

std::vector<const detail::StepKernels*> supported_kernels() {
  std::vector<const detail::StepKernels*> out;
  for (const detail::StepKernels& k : detail::step_kernels()) {
    if (k.supported()) out.push_back(&k);
  }
  return out;
}

// ---------------------------------------------------------------- tests

TEST(StepKernels, BaselineComesFirstAndTheDispatcherPicksTheHighest) {
  const auto kernels = detail::step_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string{kernels.front().name}, "baseline");
  EXPECT_TRUE(kernels.front().supported());
  EXPECT_EQ(&detail::active_step_kernels(), supported_kernels().back());
}

TEST(StepKernels, EveryKernelMatchesTheScalarLoop) {
  rngx::Rng rng{20261019};
  const Hyper hypers[] = {Hyper{}, Hyper{0.1, 0.0, 0.0}};
  for (const detail::StepKernels* k : supported_kernels()) {
    for (const std::size_t cols : kLengths) {
      for (std::size_t rows = 1; rows <= 5; ++rows) {
        const std::string where = std::string{k->name} +
                                  " rows=" + std::to_string(rows) +
                                  " cols=" + std::to_string(cols);
        const Matrix pre0 = draw_matrix(rows, cols, rng);
        const Vec bias = draw_vec(cols, rng);
        const Matrix mask = draw_matrix(rows, cols, rng);

        // Forward epilogue: logits, hidden without and with dropout.
        for (int mode = 0; mode < 3; ++mode) {
          Matrix want_pre = pre0;
          loop_add_bias(want_pre, bias);
          Matrix want_h;
          if (mode > 0) loop_activation(want_pre, mode == 2 ? &mask : nullptr,
                                        want_h);
          Matrix got_pre = pre0;
          Matrix got_h{rows, cols, -1.0};
          detail::ForwardArgs args;
          args.rows = rows;
          args.cols = cols;
          args.pre = got_pre.data().data();
          args.bias = bias.data();
          if (mode > 0) args.hidden = got_h.data().data();
          if (mode == 2) args.mask = mask.data().data();
          k->forward(args);
          EXPECT_EQ(mismatches(got_pre.data(), want_pre.data()), 0u)
              << where << " forward pre mode=" << mode;
          if (mode > 0) {
            EXPECT_EQ(mismatches(got_h.data(), want_h.data()), 0u)
                << where << " forward hidden mode=" << mode;
          }
        }

        // Bias gradient: rows summed in ascending order from +0.0.
        Vec want_gb;
        loop_bias_grad(pre0, want_gb);
        Vec got_gb(cols, -1.0);
        k->bias_grad({rows, cols, pre0.data().data(), got_gb.data()});
        EXPECT_EQ(mismatches(got_gb, want_gb), 0u) << where << " bias_grad";

        // ReLU's derivative, without and with the dropout mask.
        const Vec z{pre0.data().begin(), pre0.data().end()};
        const Vec keep{mask.data().begin(), mask.data().end()};
        const Vec delta0 = draw_vec(rows * cols, rng);
        for (const bool dropout : {false, true}) {
          Vec want = delta0;
          loop_relu_grad(z, dropout ? &keep : nullptr, want);
          Vec got = delta0;
          k->relu_grad({got.size(), z.data(), dropout ? keep.data() : nullptr,
                        got.data()});
          EXPECT_EQ(mismatches(got, want), 0u)
              << where << " relu_grad dropout=" << dropout;
        }

        // SGD and Adam on weights (decayed) and biases, rows·cols long.
        const std::size_t n = rows * cols;
        const Vec w0 = draw_vec(n, rng);
        const Vec g0 = draw_vec(n, rng);
        const Vec s1 = draw_vec(n, rng);
        const Vec s2 = draw_vec(n, rng);
        for (const Hyper& h : hypers) {
          for (const bool decay : {true, false}) {
            const std::string what = where + " decay=" + std::to_string(decay) +
                                     " lr=" + std::to_string(h.lr);
            Vec want_w = w0;
            Vec want_vel = s1;
            if (decay) {
              loop_sgd_weights(want_w, g0, want_vel, h);
            } else {
              loop_sgd_biases(want_w, g0, want_vel, h);
            }
            Vec got_w = w0;
            Vec got_vel = s1;
            detail::SgdArgs sgd;
            sgd.n = n;
            sgd.w = got_w.data();
            sgd.grad = g0.data();
            sgd.vel = got_vel.data();
            sgd.lr = h.lr;
            sgd.momentum = h.momentum;
            sgd.weight_decay = h.weight_decay;
            sgd.decay = decay;
            k->sgd(sgd);
            EXPECT_EQ(mismatches(got_w, want_w), 0u) << what << " sgd w";
            EXPECT_EQ(mismatches(got_vel, want_vel), 0u) << what << " sgd vel";

            want_w = w0;
            Vec want_m = s1;
            Vec want_v = s2;
            if (decay) {
              loop_adam_weights(want_w, g0, want_m, want_v, h);
            } else {
              loop_adam_biases(want_w, g0, want_m, want_v, h);
            }
            got_w = w0;
            Vec got_m = s1;
            Vec got_v = s2;
            detail::AdamArgs adam;
            adam.n = n;
            adam.w = got_w.data();
            adam.grad = g0.data();
            adam.m = got_m.data();
            adam.v = got_v.data();
            adam.lr = h.lr;
            adam.beta1 = h.b1;
            adam.beta2 = h.b2;
            adam.bc1 = h.bc1;
            adam.bc2 = h.bc2;
            adam.weight_decay = h.weight_decay;
            adam.decay = decay;
            k->adam(adam);
            EXPECT_EQ(mismatches(got_w, want_w), 0u) << what << " adam w";
            EXPECT_EQ(mismatches(got_m, want_m), 0u) << what << " adam m";
            EXPECT_EQ(mismatches(got_v, want_v), 0u) << what << " adam v";
          }
        }
      }
    }
  }
}

// ------------------------------------------- one whole step, as it was

/// One training step of `model` on ws.batch with d(loss)/d(logits) =
/// `dlogits`, written with the loops above and the public products, as
/// Mlp and the optimizers ran it before the step kernels.
struct ReferenceStep {
  std::vector<Matrix> pre, hidden, mask, grad_w;
  std::vector<Vec> grad_b;

  ReferenceStep(Mlp& model, const Matrix& batch, const Matrix& dlogits,
                rngx::Rng& dropout_rng, OptimizerKind opt, const Hyper& h,
                std::vector<Vec>& state) {
    const std::size_t L = model.num_layers();
    const double dropout = model.config().dropout;
    pre.resize(L);
    hidden.resize(L - 1);
    mask.resize(L - 1);
    for (std::size_t i = 0; i < L; ++i) {
      pre[i] = math::matmul_nt(i == 0 ? batch : hidden[i - 1],
                               model.weights()[i]);
      loop_add_bias(pre[i], model.biases()[i]);
      if (i + 1 == L) break;
      hidden[i].resize(pre[i].rows(), pre[i].cols());
      if (dropout > 0.0) {
        const double keep = 1.0 - dropout;
        mask[i].resize(pre[i].rows(), pre[i].cols());
        const auto z = pre[i].data();
        const auto a = hidden[i].data();
        const auto keep_mask = mask[i].data();
        for (std::size_t j = 0; j < a.size(); ++j) {
          keep_mask[j] = dropout_rng.bernoulli(keep) ? 1.0 / keep : 0.0;
          a[j] = std::max(z[j], 0.0) * keep_mask[j];
        }
      } else {
        loop_activation(pre[i], nullptr, hidden[i]);
      }
    }
    grad_w.resize(L);
    grad_b.resize(L);
    Matrix delta = dlogits;
    for (std::size_t ii = L; ii-- > 0;) {
      if (model.layer_trainable(ii)) {
        grad_w[ii] = math::matmul_tn(delta, ii == 0 ? batch : hidden[ii - 1]);
        loop_bias_grad(delta, grad_b[ii]);
      }
      if (ii == 0 || !model.layer_trainable(ii - 1)) break;
      Matrix prev = math::matmul(delta, model.weights()[ii]);
      Vec p{prev.data().begin(), prev.data().end()};
      const Vec z{pre[ii - 1].data().begin(), pre[ii - 1].data().end()};
      const Vec keep{mask[ii - 1].data().begin(), mask[ii - 1].data().end()};
      loop_relu_grad(z, dropout > 0.0 ? &keep : nullptr, p);
      delta = Matrix{prev.rows(), prev.cols(), p};
    }
    // Optimizer banks: weights then biases (SGD: velocity; Adam: m, v).
    const std::size_t banks = opt == OptimizerKind::kSgd ? 1 : 2;
    if (state.empty()) {
      for (std::size_t b = 0; b < banks; ++b) {
        for (std::size_t i = 0; i < L; ++i) {
          state.emplace_back(model.weights()[i].size(), 0.0);
        }
      }
      for (std::size_t b = 0; b < banks; ++b) {
        for (std::size_t i = 0; i < L; ++i) {
          state.emplace_back(model.biases()[i].size(), 0.0);
        }
      }
    }
    for (std::size_t i = 0; i < L; ++i) {
      if (!model.layer_trainable(i)) continue;
      const auto wd = model.weights()[i].data();
      Vec w{wd.begin(), wd.end()};
      const Vec gw{grad_w[i].data().begin(), grad_w[i].data().end()};
      Vec& b = model.biases()[i];
      if (opt == OptimizerKind::kSgd) {
        loop_sgd_weights(w, gw, state[i], h);
        loop_sgd_biases(b, grad_b[i], state[L + i], h);
      } else {
        loop_adam_weights(w, gw, state[i], state[L + i], h);
        loop_adam_biases(b, grad_b[i], state[2 * L + i], state[3 * L + i], h);
      }
      std::copy(w.begin(), w.end(), wd.begin());
    }
  }
};

TEST(StepKernels, TrainingStepMatchesTheScalarLoops) {
  // Two steps of a two-hidden-layer model, with and without dropout and a
  // frozen first layer, under SGD and Adam: the first on a batch and logit
  // gradients holding ±0 and subnormals, the second with ±inf and NaN too
  // (earlier, they would leave little but NaN for the second step).
  for (const double dropout : {0.0, 0.3}) {
    for (const bool frozen : {false, true}) {
      for (const OptimizerKind opt : {OptimizerKind::kSgd, OptimizerKind::kAdam}) {
        const std::string where = "dropout=" + std::to_string(dropout) +
                                  " frozen=" + std::to_string(frozen) +
                                  " adam=" +
                                  std::to_string(opt == OptimizerKind::kAdam);
        MlpConfig cfg;
        cfg.input_dim = 11;
        cfg.hidden = {13, 9};
        cfg.output_dim = 3;
        cfg.dropout = dropout;
        cfg.freeze_first_layer = frozen;
        rngx::Rng init{5};
        Mlp model{cfg, init};
        Mlp ref_model = model;
        OptimizerConfig oc;
        oc.learning_rate = 0.05;
        oc.momentum = 0.9;
        oc.weight_decay = 1e-3;
        Hyper h;
        h.lr = oc.learning_rate;
        h.momentum = oc.momentum;
        h.weight_decay = oc.weight_decay;
        std::unique_ptr<Optimizer> optimizer;
        if (opt == OptimizerKind::kSgd) {
          optimizer = std::make_unique<SgdOptimizer>(oc);
        } else {
          optimizer = std::make_unique<AdamOptimizer>(oc);
        }
        rngx::Rng data{17};
        rngx::Rng dropout_rng{23};
        rngx::Rng ref_dropout_rng{23};
        TrainWorkspace ws;
        std::vector<Vec> ref_state;
        for (int step = 1; step <= 2; ++step) {
          const double non_finite_rate = step == 1 ? 0.0 : 0.01;
          ws.batch = draw_matrix(7, cfg.input_dim, data, non_finite_rate);
          const Matrix dlogits =
              draw_matrix(7, cfg.output_dim, data, non_finite_rate);
          (void)model.forward_train(ws, dropout_rng);
          ws.delta[0] = dlogits;
          model.backward(ws);
          optimizer->step(model, ws.grads);

          h.bc1 = 1.0 - std::pow(h.b1, static_cast<double>(step));
          h.bc2 = 1.0 - std::pow(h.b2, static_cast<double>(step));
          const ReferenceStep ref{ref_model, ws.batch,       dlogits,
                                  ref_dropout_rng, opt,   h, ref_state};
          for (std::size_t i = 0; i < model.num_layers(); ++i) {
            const std::string layer =
                where + " step=" + std::to_string(step) + " layer=" +
                std::to_string(i);
            EXPECT_EQ(mismatches(ws.pre[i].data(), ref.pre[i].data()), 0u)
                << layer << " pre";
            if (i + 1 < model.num_layers()) {
              EXPECT_EQ(mismatches(ws.hidden[i].data(), ref.hidden[i].data()),
                        0u)
                  << layer << " hidden";
            }
            if (model.layer_trainable(i)) {
              EXPECT_EQ(mismatches(ws.grads.weights[i].data(),
                                   ref.grad_w[i].data()),
                        0u)
                  << layer << " weight gradient";
              EXPECT_EQ(mismatches(ws.grads.biases[i], ref.grad_b[i]), 0u)
                  << layer << " bias gradient";
            }
            EXPECT_EQ(mismatches(model.weights()[i].data(),
                                 ref_model.weights()[i].data()),
                      0u)
                << layer << " weights";
            EXPECT_EQ(mismatches(model.biases()[i], ref_model.biases()[i]), 0u)
                << layer << " biases";
          }
        }
        EXPECT_EQ(dropout_rng.save_state(), ref_dropout_rng.save_state())
            << where << ": the dropout stream drew a different count";
      }
    }
  }
}

}  // namespace
}  // namespace varbench::ml
