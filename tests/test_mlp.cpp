#include "src/ml/mlp.h"

#include <gtest/gtest.h>

#include <cmath>

namespace varbench::ml {
namespace {

MlpConfig small_config() {
  MlpConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = {6};
  cfg.output_dim = 3;
  return cfg;
}

TEST(Mlp, ShapesAndParameterCount) {
  rngx::Rng rng{1};
  const Mlp m{small_config(), rng};
  EXPECT_EQ(m.num_layers(), 2u);
  EXPECT_EQ(m.weights()[0].rows(), 6u);
  EXPECT_EQ(m.weights()[0].cols(), 4u);
  EXPECT_EQ(m.weights()[1].rows(), 3u);
  EXPECT_EQ(m.weights()[1].cols(), 6u);
  EXPECT_EQ(m.num_parameters(), 6u * 4u + 6u + 3u * 6u + 3u);
}

TEST(Mlp, SameSeedSameWeights) {
  rngx::Rng a{7};
  rngx::Rng b{7};
  const Mlp m1{small_config(), a};
  const Mlp m2{small_config(), b};
  EXPECT_EQ(m1.weights()[0], m2.weights()[0]);
  EXPECT_EQ(m1.weights()[1], m2.weights()[1]);
}

TEST(Mlp, DifferentSeedDifferentWeights) {
  rngx::Rng a{7};
  rngx::Rng b{8};
  const Mlp m1{small_config(), a};
  const Mlp m2{small_config(), b};
  EXPECT_NE(m1.weights()[0], m2.weights()[0]);
}

TEST(Mlp, FrozenFirstLayerIgnoresInitSeed) {
  auto cfg = small_config();
  cfg.freeze_first_layer = true;
  rngx::Rng a{7};
  rngx::Rng b{8};
  const Mlp m1{cfg, a};
  const Mlp m2{cfg, b};
  // The frozen "backbone" layer is the shared checkpoint...
  EXPECT_EQ(m1.weights()[0], m2.weights()[0]);
  // ...while the head still depends on the init seed.
  EXPECT_NE(m1.weights()[1], m2.weights()[1]);
  EXPECT_FALSE(m1.layer_trainable(0));
  EXPECT_TRUE(m1.layer_trainable(1));
}

TEST(Mlp, ForwardShape) {
  rngx::Rng rng{2};
  const Mlp m{small_config(), rng};
  const math::Matrix batch{5, 4, 0.5};
  const auto out = m.forward(batch);
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 3u);
}

TEST(Mlp, InvalidConfigThrows) {
  rngx::Rng rng{1};
  MlpConfig bad = small_config();
  bad.input_dim = 0;
  EXPECT_THROW((Mlp{bad, rng}), std::invalid_argument);
  bad = small_config();
  bad.dropout = 1.0;
  EXPECT_THROW((Mlp{bad, rng}), std::invalid_argument);
}

TEST(Mlp, GradientCheckCrossEntropy) {
  // Finite-difference verification of the analytic gradients.
  auto cfg = small_config();
  rngx::Rng rng{3};
  Mlp m{cfg, rng};
  const math::Matrix batch{{0.1, -0.2, 0.3, 0.4}, {0.5, 0.6, -0.7, 0.8}};
  const std::vector<double> labels{0.0, 2.0};

  rngx::Rng dropout_rng{4};
  TrainWorkspace ws;
  ws.batch = batch;
  const auto& logits = m.forward_train(ws, dropout_rng);
  (void)softmax_cross_entropy(logits, labels, ws.delta[0]);
  m.backward(ws);
  const Gradients& g = ws.grads;

  auto loss_at = [&](Mlp& model) {
    const auto lg = model.forward(batch);
    math::Matrix unused;
    return softmax_cross_entropy(lg, labels, unused);
  };

  constexpr double kEps = 1e-6;
  for (std::size_t layer = 0; layer < m.num_layers(); ++layer) {
    auto w = m.weights()[layer].data();
    const auto gw = g.weights[layer].data();
    for (const std::size_t j : {std::size_t{0}, w.size() / 2, w.size() - 1}) {
      const double orig = w[j];
      w[j] = orig + kEps;
      const double lp = loss_at(m);
      w[j] = orig - kEps;
      const double lm = loss_at(m);
      w[j] = orig;
      EXPECT_NEAR(gw[j], (lp - lm) / (2.0 * kEps), 1e-5)
          << "layer " << layer << " weight " << j;
    }
    auto& b = m.biases()[layer];
    const auto& gb = g.biases[layer];
    for (const std::size_t j : {std::size_t{0}, b.size() - 1}) {
      const double orig = b[j];
      b[j] = orig + kEps;
      const double lp = loss_at(m);
      b[j] = orig - kEps;
      const double lm = loss_at(m);
      b[j] = orig;
      EXPECT_NEAR(gb[j], (lp - lm) / (2.0 * kEps), 1e-5)
          << "layer " << layer << " bias " << j;
    }
  }
}

TEST(Mlp, GradientCheckMse) {
  MlpConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden = {5};
  cfg.output_dim = 1;
  rngx::Rng rng{5};
  Mlp m{cfg, rng};
  const math::Matrix batch{{0.2, 0.1, -0.3}, {0.4, -0.5, 0.6}};
  const std::vector<double> targets{0.7, -0.1};

  rngx::Rng dropout_rng{6};
  TrainWorkspace ws;
  ws.batch = batch;
  const auto& pred = m.forward_train(ws, dropout_rng);
  (void)mse_loss(pred, targets, ws.delta[0]);
  m.backward(ws);
  const Gradients& g = ws.grads;

  constexpr double kEps = 1e-6;
  auto w = m.weights()[0].data();
  const auto gw = g.weights[0].data();
  const std::size_t j = 2;
  const double orig = w[j];
  auto loss_at = [&]() {
    const auto p = m.forward(batch);
    math::Matrix unused;
    return mse_loss(p, targets, unused);
  };
  w[j] = orig + kEps;
  const double lp = loss_at();
  w[j] = orig - kEps;
  const double lm = loss_at();
  w[j] = orig;
  EXPECT_NEAR(gw[j], (lp - lm) / (2.0 * kEps), 1e-6);
}

TEST(Mlp, FrozenLayerGetsNoGradient) {
  auto cfg = small_config();
  cfg.freeze_first_layer = true;
  rngx::Rng rng{7};
  Mlp m{cfg, rng};
  const std::vector<double> labels{0.0, 1.0};
  rngx::Rng dropout_rng{8};
  TrainWorkspace ws;
  ws.batch = math::Matrix{2, 4, 0.3};
  const auto& logits = m.forward_train(ws, dropout_rng);
  (void)softmax_cross_entropy(logits, labels, ws.delta[0]);
  m.backward(ws);
  EXPECT_TRUE(ws.grads.weights[0].empty());
  EXPECT_TRUE(ws.grads.biases[0].empty());
  EXPECT_GT(ws.grads.weights[1].squared_norm(), 0.0);
}

TEST(Mlp, DropoutZerosActivationsInTraining) {
  auto cfg = small_config();
  cfg.dropout = 0.5;
  rngx::Rng rng{9};
  const Mlp m{cfg, rng};
  const math::Matrix batch{8, 4, 1.0};
  rngx::Rng d1{10};
  rngx::Rng d2{11};
  TrainWorkspace w1;
  TrainWorkspace w2;
  w1.batch = batch;
  w2.batch = batch;
  const auto& o1 = m.forward_train(w1, d1);
  const auto& o2 = m.forward_train(w2, d2);
  EXPECT_NE(o1, o2);  // different dropout masks → different outputs
  // Inference path is deterministic and mask-free.
  EXPECT_EQ(m.forward(batch), m.forward(batch));
}

TEST(Softmax, RowsSumToOne) {
  const math::Matrix logits{{1.0, 2.0, 3.0}, {-1.0, 0.0, 1.0}};
  const auto p = softmax(logits);
  for (std::size_t r = 0; r < p.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < p.cols(); ++c) {
      sum += p(r, c);
      EXPECT_GT(p(r, c), 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  const math::Matrix logits{{1000.0, 1001.0}};
  const auto p = softmax(logits);
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(p(0, 0)));
}

TEST(SoftmaxCrossEntropy, KnownValue) {
  // Uniform logits over 2 classes → loss = log 2.
  const math::Matrix logits{{0.0, 0.0}};
  math::Matrix grad;
  const double loss = softmax_cross_entropy(logits, std::vector<double>{0.0},
                                            grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(grad(0, 0), -0.5, 1e-12);
  EXPECT_NEAR(grad(0, 1), 0.5, 1e-12);
}

TEST(MseLoss, KnownValue) {
  const math::Matrix pred{{1.0}, {2.0}};
  math::Matrix grad;
  const double loss = mse_loss(pred, std::vector<double>{0.0, 2.0}, grad);
  EXPECT_NEAR(loss, 0.5, 1e-12);  // (1 + 0)/2
  EXPECT_NEAR(grad(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(grad(1, 0), 0.0, 1e-12);
}

}  // namespace
}  // namespace varbench::ml
