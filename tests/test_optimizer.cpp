#include "src/ml/optimizer.h"

#include <gtest/gtest.h>

namespace varbench::ml {
namespace {

MlpConfig tiny_config() {
  MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden = {};
  cfg.output_dim = 1;
  return cfg;
}

Gradients unit_gradients(const Mlp& m) {
  Gradients g;
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    g.weights.emplace_back(m.weights()[i].rows(), m.weights()[i].cols(), 1.0);
    g.biases.emplace_back(m.biases()[i].size(), 1.0);
  }
  return g;
}

TEST(Sgd, VanillaStepMatchesFormula) {
  rngx::Rng rng{1};
  Mlp m{tiny_config(), rng};
  const double w0 = m.weights()[0](0, 0);
  OptimizerConfig cfg;
  cfg.learning_rate = 0.1;
  SgdOptimizer opt{cfg};
  opt.step(m, unit_gradients(m));
  EXPECT_NEAR(m.weights()[0](0, 0), w0 - 0.1, 1e-12);
  EXPECT_NEAR(m.biases()[0][0], -0.1, 1e-12);
}

TEST(Sgd, MomentumAccumulates) {
  rngx::Rng rng{2};
  Mlp m{tiny_config(), rng};
  const double w0 = m.weights()[0](0, 0);
  OptimizerConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.momentum = 0.9;
  SgdOptimizer opt{cfg};
  opt.step(m, unit_gradients(m));  // v=1, w -= 0.1
  opt.step(m, unit_gradients(m));  // v=1.9, w -= 0.19
  EXPECT_NEAR(m.weights()[0](0, 0), w0 - 0.1 - 0.19, 1e-12);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  rngx::Rng rng{3};
  Mlp m{tiny_config(), rng};
  m.weights()[0](0, 0) = 10.0;
  OptimizerConfig cfg;
  cfg.learning_rate = 0.1;
  cfg.weight_decay = 0.5;
  SgdOptimizer opt{cfg};
  Gradients g;
  g.weights.emplace_back(1, 2, 0.0);
  g.biases.emplace_back(1, 0.0);
  opt.step(m, g);
  // w -= lr·(0 + wd·w) = 10 − 0.1·5 = 9.5
  EXPECT_NEAR(m.weights()[0](0, 0), 9.5, 1e-12);
  // Weight decay must not touch biases.
  m.biases()[0][0] = 4.0;
  opt.step(m, g);
  EXPECT_NEAR(m.biases()[0][0], 4.0, 1e-12);
}

TEST(Sgd, ExponentialLrDecay) {
  rngx::Rng rng{4};
  Mlp m{tiny_config(), rng};
  OptimizerConfig cfg;
  cfg.learning_rate = 1.0;
  cfg.lr_gamma = 0.5;
  SgdOptimizer opt{cfg};
  EXPECT_DOUBLE_EQ(opt.current_lr(), 1.0);
  opt.end_epoch();
  EXPECT_DOUBLE_EQ(opt.current_lr(), 0.5);
  opt.end_epoch();
  EXPECT_DOUBLE_EQ(opt.current_lr(), 0.25);
}

TEST(Sgd, SkipsFrozenLayers) {
  MlpConfig cfg = tiny_config();
  cfg.hidden = {3};
  cfg.freeze_first_layer = true;
  rngx::Rng rng{5};
  Mlp m{cfg, rng};
  const auto frozen_before = m.weights()[0];
  OptimizerConfig ocfg;
  ocfg.learning_rate = 0.5;
  SgdOptimizer opt{ocfg};
  opt.step(m, unit_gradients(m));
  EXPECT_EQ(m.weights()[0], frozen_before);
  EXPECT_NE(m.weights()[1](0, 0), 0.0);
}

TEST(Adam, FirstStepHasUnitScale) {
  // With bias correction, the very first Adam step is ≈ lr·sign(grad).
  rngx::Rng rng{6};
  Mlp m{tiny_config(), rng};
  const double w0 = m.weights()[0](0, 0);
  OptimizerConfig cfg;
  cfg.learning_rate = 0.01;
  AdamOptimizer opt{cfg};
  opt.step(m, unit_gradients(m));
  EXPECT_NEAR(m.weights()[0](0, 0), w0 - 0.01, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w·x − y)² on a fixed batch; Adam should reach near-zero loss.
  MlpConfig mcfg = tiny_config();
  rngx::Rng rng{7};
  Mlp m{mcfg, rng};
  const math::Matrix x{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const std::vector<double> y{1.0, 2.0, 3.0};
  OptimizerConfig cfg;
  cfg.learning_rate = 0.05;
  AdamOptimizer opt{cfg};
  rngx::Rng drop{8};
  TrainWorkspace ws;
  ws.batch = x;
  for (int it = 0; it < 1500; ++it) {
    (void)mse_loss(m.forward_train(ws, drop), y, ws.delta[0]);
    m.backward(ws);
    opt.step(m, ws.grads);
  }
  math::Matrix unused;
  const auto pred = m.forward(x);
  EXPECT_NEAR(mse_loss(pred, y, unused), 0.0, 1e-3);
}

TEST(Sgd, ConvergesOnQuadratic) {
  MlpConfig mcfg = tiny_config();
  rngx::Rng rng{9};
  Mlp m{mcfg, rng};
  const math::Matrix x{{1.0, 0.0}, {0.0, 1.0}};
  const std::vector<double> y{0.5, -0.5};
  OptimizerConfig cfg;
  cfg.learning_rate = 0.2;
  cfg.momentum = 0.5;
  SgdOptimizer opt{cfg};
  rngx::Rng drop{10};
  TrainWorkspace ws;
  ws.batch = x;
  for (int it = 0; it < 300; ++it) {
    (void)mse_loss(m.forward_train(ws, drop), y, ws.delta[0]);
    m.backward(ws);
    opt.step(m, ws.grads);
  }
  math::Matrix unused;
  EXPECT_NEAR(mse_loss(m.forward(x), y, unused), 0.0, 1e-4);
}

}  // namespace
}  // namespace varbench::ml
