#include "src/stats/distributions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace varbench::stats {
namespace {

TEST(NormalPdf, StandardValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-1.6448536269514722), 0.05, 1e-9);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-10);
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.05), -1.6448536269514722, 1e-9);
  EXPECT_NEAR(normal_quantile(0.9999), 3.719016485455709, 1e-7);
}

TEST(NormalQuantile, ExtremePs) {
  EXPECT_TRUE(std::isinf(normal_quantile(0.0)));
  EXPECT_TRUE(std::isinf(normal_quantile(1.0)));
  EXPECT_LT(normal_quantile(0.0), 0.0);
  EXPECT_GT(normal_quantile(1.0), 0.0);
  EXPECT_THROW((void)normal_quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.1), std::invalid_argument);
}

// Property: Φ(Φ⁻¹(p)) == p across the unit interval.
class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfInvertsQuantile) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileRoundTrip,
                         ::testing::Values(1e-6, 1e-4, 0.01, 0.02425, 0.1, 0.25,
                                           0.5, 0.75, 0.9, 0.97575, 0.99,
                                           0.9999, 1.0 - 1e-6));

TEST(LogGamma, MatchesFactorials) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(log_gamma(11.0), std::log(3628800.0), 1e-8);
}

TEST(LogGamma, HalfIntegerValue) {
  // Γ(1/2) = √π
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1, 1) = x.
  for (const double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncompleteBeta, SymmetryIdentity) {
  // I_x(a,b) = 1 − I_{1−x}(b,a)
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-12);
}

TEST(StudentT, TwoSidedPValue) {
  // For ν=10, t=2.228 corresponds to p ≈ 0.05.
  EXPECT_NEAR(student_t_two_sided_p(2.228, 10.0), 0.05, 1e-3);
  EXPECT_NEAR(student_t_two_sided_p(0.0, 10.0), 1.0, 1e-12);
}

TEST(BinomialAccuracyStd, MatchesPaperFig2Examples) {
  // Fig. 2: Glue-RTE BERT, τ≈0.66, n'=277 → σ ≈ 2.8% accuracy.
  EXPECT_NEAR(binomial_accuracy_std(0.66, 277), 0.0285, 5e-4);
  // Glue-SST2 BERT: τ≈0.95, n'=872 → σ ≈ 0.74%.
  EXPECT_NEAR(binomial_accuracy_std(0.95, 872), 0.00738, 5e-5);
  // CIFAR10 VGG11: τ≈0.91, n'=10000 → σ ≈ 0.29%.
  EXPECT_NEAR(binomial_accuracy_std(0.91, 10000), 0.00286, 5e-5);
}

TEST(BinomialAccuracyStd, ShrinksWithTestSize) {
  EXPECT_GT(binomial_accuracy_std(0.8, 100), binomial_accuracy_std(0.8, 1000));
  EXPECT_THROW((void)binomial_accuracy_std(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW((void)binomial_accuracy_std(1.5, 10.0), std::invalid_argument);
}

TEST(ChiSquared, KnownValues) {
  // χ²(k=2) is Exp(1/2): F(x) = 1 − e^{−x/2}.
  EXPECT_NEAR(chi_squared_cdf(2.0, 2.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(chi_squared_cdf(0.0, 3.0), 0.0, 1e-15);
}

TEST(IncompleteGammaP, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.5; x < 10.0; x += 0.5) {
    const double v = incomplete_gamma_p(2.5, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_NEAR(prev, 1.0, 5e-3);
}

}  // namespace
}  // namespace varbench::stats
