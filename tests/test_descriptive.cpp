#include "src/stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/rngx/rng.h"

namespace varbench::stats {
namespace {

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), std::invalid_argument);
  EXPECT_THROW((void)variance(empty), std::invalid_argument);
  EXPECT_THROW((void)quantile(empty, 0.5), std::invalid_argument);
}

TEST(Descriptive, SingleElementVarianceIsZero) {
  const std::vector<double> x{3.0};
  EXPECT_DOUBLE_EQ(variance(x), 0.0);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> x{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(x), -1.0);
  EXPECT_DOUBLE_EQ(max_value(x), 7.0);
}

TEST(Quantile, MedianAndInterpolation) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(x), 2.5);
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 1.75);  // numpy type-7 convention
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> x{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(x), 5.0);
}

TEST(Quantile, OutOfRangeQThrows) {
  const std::vector<double> x{1.0, 2.0};
  EXPECT_THROW((void)quantile(x, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(x, 1.1), std::invalid_argument);
}

TEST(Covariance, KnownValue) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 4.0, 6.0};
  EXPECT_NEAR(covariance(x, y), 2.0, 1e-12);  // cov = 2·var(x) = 2
}

TEST(Pearson, PerfectCorrelations) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{10.0, 20.0, 30.0, 40.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg_y{-10.0, -20.0, -30.0, -40.0};
  EXPECT_NEAR(pearson(x, neg_y), -1.0, 1e-12);
}

TEST(Pearson, ConstantInputGivesZero) {
  const std::vector<double> x{1.0, 1.0, 1.0};
  const std::vector<double> y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, IndependentSamplesNearZero) {
  rngx::Rng rng{5};
  std::vector<double> x(5000);
  std::vector<double> y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Ranks, NoTies) {
  const std::vector<double> x{30.0, 10.0, 20.0};
  const auto r = ranks(x);
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(Ranks, TiesGetMidRank) {
  const std::vector<double> x{1.0, 2.0, 2.0, 3.0};
  const auto r = ranks(x);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Ranks, AllTied) {
  const std::vector<double> x{5.0, 5.0, 5.0};
  const auto r = ranks(x);
  for (const double v : r) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(ImpliedCorrelation, InvertsEquation7) {
  // Forward: Var(mean) = V/k + (k−1)/k·ρ·V with V=4, ρ=0.3, k=10.
  const double v = 4.0;
  const double rho = 0.3;
  const std::size_t k = 10;
  const double var_mean = v / k + (k - 1.0) / k * rho * v;
  EXPECT_NEAR(implied_correlation(var_mean, v, k), rho, 1e-12);
}

TEST(ImpliedCorrelation, IndependentGivesZero) {
  // Var(mean) = V/k exactly → ρ = 0.
  EXPECT_NEAR(implied_correlation(0.5, 5.0, 10), 0.0, 1e-12);
}

TEST(ImpliedCorrelation, ClampsToValidRange) {
  EXPECT_LE(implied_correlation(100.0, 1.0, 10), 1.0);
  EXPECT_GE(implied_correlation(0.0, 1.0, 10), -1.0);
}

TEST(Moments, BitIdenticalToSeparatePasses) {
  // The fused kernel feeds report summaries whose rendered output is
  // byte-diffed in CI, so it must match the separate passes exactly —
  // not just to a tolerance.
  rngx::Rng rng{0x5eed};
  std::vector<double> x;
  for (int i = 0; i < 1000; ++i) x.push_back(rng.normal(3.0, 7.0));
  const Moments m = moments(x);
  EXPECT_EQ(m.count, x.size());
  EXPECT_EQ(m.mean, mean(x));
  EXPECT_EQ(m.variance, variance(x));
  EXPECT_EQ(m.stddev, stddev(x));
  EXPECT_EQ(m.min, min_value(x));
  EXPECT_EQ(m.max, max_value(x));
}

TEST(Moments, SingleElementAndEmpty) {
  const std::vector<double> one{3.5};
  const Moments m = moments(one);
  EXPECT_DOUBLE_EQ(m.mean, 3.5);
  EXPECT_DOUBLE_EQ(m.variance, 0.0);
  EXPECT_DOUBLE_EQ(m.min, 3.5);
  EXPECT_DOUBLE_EQ(m.max, 3.5);
  EXPECT_THROW((void)moments(std::vector<double>{}), std::invalid_argument);
}

}  // namespace
}  // namespace varbench::stats
