#include <gtest/gtest.h>

#include <cmath>

#include "src/ml/augment.h"
#include "src/ml/init.h"
#include "src/stats/descriptive.h"

namespace varbench::ml {
namespace {

TEST(Augment, InactiveConfigIsIdentity) {
  const math::Matrix batch{{1.0, 2.0}, {3.0, 4.0}};
  rngx::Rng rng{1};
  const AugmentConfig none;
  EXPECT_FALSE(is_active(none));
  math::Matrix out = batch;
  augment_batch(out, none, rng);
  EXPECT_EQ(out, batch);
}

TEST(Augment, JitterPreservesMeanAndAddsVariance) {
  math::Matrix out{200, 50, 1.0};
  rngx::Rng rng{2};
  AugmentConfig cfg;
  cfg.jitter_std = 0.3;
  EXPECT_TRUE(is_active(cfg));
  augment_batch(out, cfg, rng);
  std::vector<double> values(out.data().begin(), out.data().end());
  EXPECT_NEAR(stats::mean(values), 1.0, 0.01);
  EXPECT_NEAR(stats::stddev(values), 0.3, 0.01);
}

TEST(Augment, MaskZeroesExpectedFraction) {
  math::Matrix out{100, 100, 1.0};
  rngx::Rng rng{3};
  AugmentConfig cfg;
  cfg.mask_prob = 0.25;
  augment_batch(out, cfg, rng);
  std::size_t zeros = 0;
  for (const double v : out.data()) {
    if (v == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.25, 0.02);
}

TEST(Augment, SameSeedSameAugmentation) {
  math::Matrix a{5, 5, 2.0};
  math::Matrix b = a;
  AugmentConfig cfg;
  cfg.jitter_std = 0.2;
  cfg.mask_prob = 0.1;
  rngx::Rng r1{4};
  rngx::Rng r2{4};
  augment_batch(a, cfg, r1);
  augment_batch(b, cfg, r2);
  EXPECT_EQ(a, b);
}

TEST(Augment, BadConfigThrows) {
  math::Matrix batch{1, 1};
  rngx::Rng rng{1};
  AugmentConfig bad;
  bad.jitter_std = -1.0;
  EXPECT_THROW(augment_batch(batch, bad, rng), std::invalid_argument);
  bad.jitter_std = 0.0;
  bad.mask_prob = 1.0;
  EXPECT_THROW(augment_batch(batch, bad, rng), std::invalid_argument);
}

TEST(Init, GlorotUniformRespectsLimit) {
  math::Matrix w{64, 32};
  rngx::Rng rng{5};
  initialize_weights(w, InitScheme::kGlorotUniform, rng);
  const double limit = std::sqrt(6.0 / (64.0 + 32.0));
  for (const double v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
  // Not degenerate: variance close to limit²/3.
  std::vector<double> values(w.data().begin(), w.data().end());
  EXPECT_NEAR(stats::variance(values), limit * limit / 3.0,
              limit * limit / 3.0 * 0.2);
}

TEST(Init, GlorotNormalVariance) {
  math::Matrix w{100, 60};
  rngx::Rng rng{6};
  initialize_weights(w, InitScheme::kGlorotNormal, rng);
  std::vector<double> values(w.data().begin(), w.data().end());
  EXPECT_NEAR(stats::variance(values), 2.0 / 160.0, 2.0 / 160.0 * 0.15);
  EXPECT_NEAR(stats::mean(values), 0.0, 0.005);
}

TEST(Init, HeNormalVariance) {
  math::Matrix w{100, 50};
  rngx::Rng rng{7};
  initialize_weights(w, InitScheme::kHeNormal, rng);
  std::vector<double> values(w.data().begin(), w.data().end());
  EXPECT_NEAR(stats::variance(values), 2.0 / 50.0, 2.0 / 50.0 * 0.15);
}

TEST(Init, NormalScaledUsesSigma) {
  math::Matrix w{80, 80};
  rngx::Rng rng{8};
  initialize_weights(w, InitScheme::kNormalScaled, rng, 0.05);
  std::vector<double> values(w.data().begin(), w.data().end());
  EXPECT_NEAR(stats::stddev(values), 0.05, 0.005);
}

TEST(Init, NormalScaledRejectsBadSigma) {
  math::Matrix w{2, 2};
  rngx::Rng rng{9};
  EXPECT_THROW(initialize_weights(w, InitScheme::kNormalScaled, rng, 0.0),
               std::invalid_argument);
}

TEST(Init, DeterministicPerSeed) {
  math::Matrix w1{8, 8};
  math::Matrix w2{8, 8};
  rngx::Rng r1{10};
  rngx::Rng r2{10};
  initialize_weights(w1, InitScheme::kGlorotUniform, r1);
  initialize_weights(w2, InitScheme::kGlorotUniform, r2);
  EXPECT_EQ(w1, w2);
}

}  // namespace
}  // namespace varbench::ml
