#include "src/ml/train.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/ml/metrics.h"
#include "src/ml/synthetic.h"

namespace varbench::ml {
namespace {

Dataset easy_dataset(std::uint64_t seed = 1) {
  GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 300;
  cfg.class_sep = 3.0;
  rngx::Rng rng{seed};
  return make_gaussian_mixture(cfg, rng);
}

TrainConfig quick_config() {
  TrainConfig cfg;
  cfg.model.hidden = {8};
  cfg.opt.learning_rate = 0.05;
  cfg.opt.momentum = 0.9;
  cfg.epochs = 20;
  cfg.batch_size = 16;
  return cfg;
}

TEST(Train, LearnsSeparableTask) {
  const auto data = easy_dataset();
  const rngx::VariationSeeds seeds;
  const Mlp m = train_mlp(data, quick_config(), seeds);
  EXPECT_GT(evaluate_model(m, data, Metric::kAccuracy), 0.9);
}

TEST(Train, ReproducibleWithSameSeeds) {
  const auto data = easy_dataset();
  const rngx::VariationSeeds seeds;
  const Mlp m1 = train_mlp(data, quick_config(), seeds);
  const Mlp m2 = train_mlp(data, quick_config(), seeds);
  EXPECT_EQ(m1.weights()[0], m2.weights()[0]);
  EXPECT_EQ(m1.weights()[1], m2.weights()[1]);
}

TEST(Train, WeightInitSeedChangesResult) {
  const auto data = easy_dataset();
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.weight_init = 999;
  const Mlp m1 = train_mlp(data, quick_config(), a);
  const Mlp m2 = train_mlp(data, quick_config(), b);
  EXPECT_NE(m1.weights()[0], m2.weights()[0]);
}

TEST(Train, DataOrderSeedChangesResult) {
  const auto data = easy_dataset();
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.data_order = 999;
  const Mlp m1 = train_mlp(data, quick_config(), a);
  const Mlp m2 = train_mlp(data, quick_config(), b);
  EXPECT_NE(m1.weights()[0], m2.weights()[0]);
}

TEST(Train, DropoutSeedChangesResultOnlyWhenDropoutActive) {
  const auto data = easy_dataset();
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.dropout = 999;
  // No dropout configured → identical results.
  const Mlp m1 = train_mlp(data, quick_config(), a);
  const Mlp m2 = train_mlp(data, quick_config(), b);
  EXPECT_EQ(m1.weights()[0], m2.weights()[0]);
  // With dropout → different results.
  auto cfg = quick_config();
  cfg.model.dropout = 0.3;
  const Mlp m3 = train_mlp(data, cfg, a);
  const Mlp m4 = train_mlp(data, cfg, b);
  EXPECT_NE(m3.weights()[0], m4.weights()[0]);
}

TEST(Train, AugmentSeedChangesResultOnlyWhenAugmentActive) {
  const auto data = easy_dataset();
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.data_augment = 999;
  const Mlp m1 = train_mlp(data, quick_config(), a);
  const Mlp m2 = train_mlp(data, quick_config(), b);
  EXPECT_EQ(m1.weights()[0], m2.weights()[0]);
  auto cfg = quick_config();
  cfg.augment.jitter_std = 0.2;
  const Mlp m3 = train_mlp(data, cfg, a);
  const Mlp m4 = train_mlp(data, cfg, b);
  EXPECT_NE(m3.weights()[0], m4.weights()[0]);
}

TEST(Train, NumericalNoiseBreaksReproducibility) {
  const auto data = easy_dataset();
  auto cfg = quick_config();
  cfg.numerical_noise_std = 0.01;
  const rngx::VariationSeeds seeds;
  const Mlp m1 = train_mlp(data, cfg, seeds);
  const Mlp m2 = train_mlp(data, cfg, seeds);
  // Identical seeds but non-identical results — the paper's Appendix A
  // irreproducible-pipeline case.
  EXPECT_NE(m1.weights()[0], m2.weights()[0]);
}

TEST(Train, RegressionPathLearnsTeacher) {
  RegressionTeacherConfig rcfg;
  rcfg.dim = 6;
  rcfg.n = 400;
  rcfg.noise_std = 0.01;
  rngx::Rng rng{3};
  const auto data = make_regression_teacher(rcfg, rng);
  TrainConfig cfg;
  cfg.model.hidden = {16};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.loss = LossKind::kMse;
  cfg.opt.learning_rate = 0.01;
  cfg.epochs = 30;
  cfg.batch_size = 32;
  const rngx::VariationSeeds seeds;
  const Mlp m = train_mlp(data, cfg, seeds);
  EXPECT_GT(evaluate_model(m, data, Metric::kPearson), 0.8);
}

TEST(Train, EmptyDatasetThrows) {
  const Dataset empty;
  EXPECT_THROW((void)train_mlp(empty, quick_config(), rngx::VariationSeeds{}),
               std::invalid_argument);
}

TEST(Train, CeLossOnRegressionThrows) {
  RegressionTeacherConfig rcfg;
  rcfg.n = 50;
  rngx::Rng rng{4};
  const auto data = make_regression_teacher(rcfg, rng);
  auto cfg = quick_config();
  cfg.loss = LossKind::kSoftmaxCrossEntropy;
  EXPECT_THROW((void)train_mlp(data, cfg, rngx::VariationSeeds{}),
               std::invalid_argument);
}

TEST(Train, MeanLossDecreasesWithTraining) {
  const auto data = easy_dataset();
  auto cfg = quick_config();
  cfg.epochs = 1;
  const rngx::VariationSeeds seeds;
  const Mlp short_train = train_mlp(data, cfg, seeds);
  cfg.epochs = 15;
  const Mlp long_train = train_mlp(data, cfg, seeds);
  EXPECT_LT(mean_loss(long_train, data, LossKind::kSoftmaxCrossEntropy),
            mean_loss(short_train, data, LossKind::kSoftmaxCrossEntropy));
}

/// FNV-1a over the bytes of every final weight and bias, layer by layer.
/// Every NaN hashes as one pattern: the GEMM contract pins NaN, not its
/// payload (docs/determinism.md, "NaN payloads").
std::uint64_t parameter_digest(const Mlp& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double v) {
    const std::uint64_t bits = std::isnan(v) ? 0x7FF8000000000000ULL
                                             : std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < m.num_layers(); ++i) {
    for (const double v : m.weights()[i].data()) mix(v);
    for (const double v : m.biases()[i]) mix(v);
  }
  return h;
}

// Pins every bit training produces: a change to the training step that
// moves one weight of one fit fails here, naming the fit. Covers each case
// study's defaults (pascalvoc_fcn without its unseeded noise), the only
// run with two hidden layers (Adam, dropout, masking), and two diverging
// SGD runs whose weights reach inf and NaN.
TEST(Train, ParameterDigestsArePinned) {
  struct Fit {
    std::string name;
    std::uint64_t want;
  };
  const std::vector<Fit> fits = {
      {"glue_rte_bert", 0xa677ba0015d8a71eULL},
      {"glue_sst2_bert", 0x874941d7c583a3b2ULL},
      {"mhc_mlp", 0x53a7ee9cfc81e133ULL},
      {"pascalvoc_fcn", 0x8c753c9a8ed58d7cULL},
      {"cifar10_vgg11", 0x9c3b1cba4c06d6a0ULL},
  };
  ASSERT_EQ(casestudies::case_study_ids().size(), fits.size());
  const auto check = [](const Fit& fit, const Mlp& m) {
    const std::uint64_t got = parameter_digest(m);
    EXPECT_EQ(got, fit.want) << fit.name << ": got 0x" << std::hex << got;
  };
  for (const Fit& fit : fits) {
    const auto cs = casestudies::make_case_study(fit.name, 0.05);
    TrainConfig cfg =
        cs.pipeline->resolve_config(cs.pipeline->default_params());
    cfg.numerical_noise_std = 0.0;
    check(fit, train_mlp(*cs.pool, cfg, rngx::VariationSeeds{}));
  }

  auto deep = quick_config();
  deep.model.hidden = {8, 6};
  deep.model.dropout = 0.3;
  deep.augment.mask_prob = 0.2;
  deep.optimizer = OptimizerKind::kAdam;
  deep.opt.learning_rate = 0.01;
  deep.epochs = 4;
  check({"two_hidden_adam_dropout_mask", 0xbc6df1954b7f8fa7ULL},
        train_mlp(easy_dataset(), deep, rngx::VariationSeeds{}));

  // Diverging SGD: after two epochs at lr 1 the weights hold inf, NaN and
  // one finite value; after four at lr 0.5 every weight is NaN, and which
  // biases NaN reaches pins relu'(NaN) (the select keeps the gradient).
  RegressionTeacherConfig rcfg;
  rcfg.n = 64;
  rngx::Rng rng{5};
  const Dataset teacher = make_regression_teacher(rcfg, rng);
  auto diverge = quick_config();
  diverge.loss = LossKind::kMse;
  diverge.opt.learning_rate = 1.0;
  diverge.epochs = 2;
  const Mlp blown = train_mlp(teacher, diverge, rngx::VariationSeeds{});
  std::size_t infs = 0;
  std::size_t nans = 0;
  for (const auto& w : blown.weights()) {
    for (const double v : w.data()) {
      infs += std::isinf(v) ? 1 : 0;
      nans += std::isnan(v) ? 1 : 0;
    }
  }
  EXPECT_GT(infs, 0u);
  EXPECT_GT(nans, 0u);
  check({"sgd_overflow", 0x5f9745c166c689a9ULL}, blown);
  diverge.opt.learning_rate = 0.5;
  diverge.epochs = 4;
  check({"sgd_all_nan", 0xdcc994a2cae06ec0ULL},
        train_mlp(teacher, diverge, rngx::VariationSeeds{}));
}

}  // namespace
}  // namespace varbench::ml
