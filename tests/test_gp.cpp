#include "src/hpo/gp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/rngx/rng.h"

namespace varbench::hpo {
namespace {

TEST(Gp, InterpolatesTrainingPoints) {
  // With tiny noise, the posterior mean at a training point equals its target.
  math::Matrix x{{0.1}, {0.5}, {0.9}};
  const std::vector<double> y{1.0, -1.0, 2.0};
  GpConfig cfg;
  cfg.noise_variance = 1e-10;
  GaussianProcess gp{cfg};
  gp.fit(x, y);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto pred = gp.predict(x.row(i));
    EXPECT_NEAR(pred.mean, y[i], 1e-4);
    EXPECT_LT(pred.variance, 1e-4);
  }
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  math::Matrix x{{0.2}, {0.3}};
  const std::vector<double> y{0.0, 0.1};
  GaussianProcess gp;
  gp.fit(x, y);
  const std::vector<double> near_pt{0.25};
  const std::vector<double> far_pt{0.95};
  EXPECT_LT(gp.predict(near_pt).variance, gp.predict(far_pt).variance);
}

TEST(Gp, RecoverSmoothFunction) {
  // Fit y = sin(2πx) on a grid; check interpolation error between knots.
  constexpr std::size_t n = 20;
  math::Matrix x{n, 1};
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / (n - 1);
    y[i] = std::sin(2.0 * M_PI * x(i, 0));
  }
  GpConfig cfg;
  cfg.length_scale = 0.15;
  cfg.noise_variance = 1e-8;
  GaussianProcess gp{cfg};
  gp.fit(x, y);
  for (double q = 0.05; q < 1.0; q += 0.1) {
    const std::vector<double> pt{q};
    EXPECT_NEAR(gp.predict(pt).mean, std::sin(2.0 * M_PI * q), 0.05);
  }
}

TEST(Gp, PredictBeforeFitThrows) {
  const GaussianProcess gp;
  EXPECT_THROW((void)gp.predict(std::vector<double>{0.5}), std::logic_error);
}

TEST(Gp, DimMismatchThrows) {
  math::Matrix x{{0.1, 0.2}};
  GaussianProcess gp;
  gp.fit(x, std::vector<double>{1.0});
  EXPECT_THROW((void)gp.predict(std::vector<double>{0.5}),
               std::invalid_argument);
}

TEST(Gp, DuplicatePointsHandledByJitter) {
  // Identical inputs make K singular without jitter escalation.
  math::Matrix x{{0.5}, {0.5}, {0.5}};
  const std::vector<double> y{1.0, 1.0, 1.0};
  GaussianProcess gp;
  EXPECT_NO_THROW(gp.fit(x, y));
  EXPECT_NEAR(gp.predict(std::vector<double>{0.5}).mean, 1.0, 0.05);
}

TEST(Gp, BadConfigThrows) {
  GpConfig cfg;
  cfg.length_scale = 0.0;
  EXPECT_THROW((GaussianProcess{cfg}), std::invalid_argument);
}

TEST(Gp, BadFitInputsThrow) {
  GaussianProcess gp;
  const math::Matrix x{{0.1}};
  EXPECT_THROW(gp.fit(x, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace varbench::hpo
