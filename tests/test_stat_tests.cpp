#include "src/stats/tests.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/rngx/rng.h"

namespace varbench::stats {
namespace {

const exec::ExecContext kSerial{};

TEST(WelchT, EqualSamplesGiveP1) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const auto r = welch_t_test(x, x);
  EXPECT_NEAR(r.statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
}

TEST(WelchT, DetectsLargeDifference) {
  rngx::Rng rng{3};
  std::vector<double> a(40);
  std::vector<double> b(40);
  for (double& v : a) v = rng.normal(0.0, 1.0);
  for (double& v : b) v = rng.normal(2.0, 1.5);
  const auto r = welch_t_test(a, b);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_LT(r.statistic, 0.0);  // mean(a) < mean(b)
}

TEST(WelchT, FalsePositiveRateNearAlpha) {
  rngx::Rng rng{4};
  int rejections = 0;
  constexpr int rounds = 400;
  for (int i = 0; i < rounds; ++i) {
    std::vector<double> a(20);
    std::vector<double> b(20);
    for (double& v : a) v = rng.normal();
    for (double& v : b) v = rng.normal();
    if (welch_t_test(a, b).p_value < 0.05) ++rejections;
  }
  EXPECT_NEAR(static_cast<double>(rejections) / rounds, 0.05, 0.04);
}

TEST(MannWhitney, KnownSmallExample) {
  // A = {1,2,3}, B = {4,5,6}: A always loses → U_A = 0.
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  const auto r = mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(r.u_statistic, 0.0);
  EXPECT_DOUBLE_EQ(r.prob_a_greater, 0.0);
}

TEST(MannWhitney, SymmetricSamplesGiveHalf) {
  const std::vector<double> a{1.0, 3.0, 5.0};
  const std::vector<double> b{2.0, 4.0, 6.0};
  const auto r = mann_whitney_u(a, b);
  EXPECT_NEAR(r.prob_a_greater, 1.0 / 3.0, 1e-12);  // U_A = 3 of 9
}

TEST(MannWhitney, ProbAGreaterIsEffectSize) {
  // prob_a_greater must equal the fraction of (a, b) pairs with a > b
  // (ties counting half).
  const std::vector<double> a{5.0, 5.0, 9.0};
  const std::vector<double> b{5.0, 1.0, 9.0};
  const auto r = mann_whitney_u(a, b);
  double wins = 0.0;
  for (const double x : a) {
    for (const double y : b) {
      if (x > y) wins += 1.0;
      if (x == y) wins += 0.5;
    }
  }
  EXPECT_NEAR(r.prob_a_greater, wins / 9.0, 1e-12);
}

TEST(MannWhitney, DetectsShift) {
  rngx::Rng rng{6};
  std::vector<double> a(40);
  std::vector<double> b(40);
  for (double& v : a) v = rng.normal(1.0, 1.0);
  for (double& v : b) v = rng.normal(0.0, 1.0);
  const auto r = mann_whitney_u(a, b);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_GT(r.prob_a_greater, 0.6);
}

TEST(MannWhitney, NullFalsePositiveRate) {
  rngx::Rng rng{7};
  int rejections = 0;
  constexpr int rounds = 300;
  for (int i = 0; i < rounds; ++i) {
    std::vector<double> a(25);
    std::vector<double> b(25);
    for (double& v : a) v = rng.normal();
    for (double& v : b) v = rng.normal();
    if (mann_whitney_u(a, b).p_value < 0.05) ++rejections;
  }
  EXPECT_NEAR(static_cast<double>(rejections) / rounds, 0.05, 0.04);
}

TEST(Wilcoxon, AllZeroDifferencesGiveP1) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const auto r = wilcoxon_signed_rank(a, a);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(Wilcoxon, DetectsPairedShift) {
  rngx::Rng rng{8};
  std::vector<double> a(40);
  std::vector<double> b(40);
  for (std::size_t i = 0; i < a.size(); ++i) {
    b[i] = rng.normal(0.0, 1.0);
    a[i] = b[i] + 0.8 + rng.normal(0.0, 0.3);
  }
  EXPECT_LT(wilcoxon_signed_rank(a, b).p_value, 1e-4);
}

TEST(Wilcoxon, MismatchedSizesThrow) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)wilcoxon_signed_rank(a, b), std::invalid_argument);
}

TEST(Bonferroni, DividesAlpha) {
  EXPECT_DOUBLE_EQ(bonferroni_alpha(0.05, 5), 0.01);
  EXPECT_THROW((void)bonferroni_alpha(0.05, 0), std::invalid_argument);
}

TEST(PermutationTest, NullDataGivesLargeP) {
  rngx::Rng data_rng{31};
  std::vector<double> a(40);
  std::vector<double> b(40);
  for (double& v : a) v = data_rng.normal(1.0, 0.5);
  for (double& v : b) v = data_rng.normal(1.0, 0.5);
  rngx::Rng rng{32};
  const auto r = permutation_test_mean_diff(kSerial, a, b, rng, 2000);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(PermutationTest, SeparatedDataGivesSmallP) {
  rngx::Rng data_rng{33};
  std::vector<double> a(40);
  std::vector<double> b(40);
  for (double& v : a) v = data_rng.normal(1.0, 0.3);
  for (double& v : b) v = data_rng.normal(0.0, 0.3);
  rngx::Rng rng{34};
  const auto r = permutation_test_mean_diff(kSerial, a, b, rng, 2000);
  // Add-one p-value floor: 1 / (1 + 2000).
  EXPECT_LT(r.p_value, 0.001);
  EXPECT_NEAR(r.statistic, 1.0, 0.3);
}

TEST(PermutationTest, AgreesWithWelchOnGaussianData) {
  rngx::Rng data_rng{35};
  std::vector<double> a(60);
  std::vector<double> b(60);
  for (double& v : a) v = data_rng.normal(0.1, 1.0);
  for (double& v : b) v = data_rng.normal(0.0, 1.0);
  rngx::Rng rng{36};
  const auto perm = permutation_test_mean_diff(kSerial, a, b, rng, 5000);
  const auto welch = welch_t_test(a, b);
  EXPECT_NEAR(perm.p_value, welch.p_value, 0.05);
}

TEST(PermutationTest, RejectsBadInputs) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> empty;
  rngx::Rng rng{37};
  EXPECT_THROW((void)permutation_test_mean_diff(kSerial, empty, x, rng),
               std::invalid_argument);
  EXPECT_THROW((void)permutation_test_mean_diff(kSerial, x, x, rng, 0),
               std::invalid_argument);
}

TEST(PairedPermutationTest, DetectsPairedShift) {
  rngx::Rng data_rng{38};
  std::vector<double> a(30);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.0, 1.0);
    b[i] = a[i] - 0.4 - data_rng.normal(0.0, 0.1);
  }
  rngx::Rng rng{39};
  const auto r = paired_permutation_test(kSerial, a, b, rng, 2000);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_GT(r.statistic, 0.0);
}

TEST(PairedPermutationTest, NullPairsGiveLargeP) {
  rngx::Rng data_rng{40};
  std::vector<double> a(30);
  std::vector<double> b(30);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.0, 1.0);
    b[i] = a[i] + data_rng.normal(0.0, 0.2);  // noise, no shift
  }
  rngx::Rng rng{41};
  const auto r = paired_permutation_test(kSerial, a, b, rng, 2000);
  EXPECT_GT(r.p_value, 0.01);
}

TEST(PairedPermutationTest, RejectsBadInputs) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{1.0};
  rngx::Rng rng{42};
  EXPECT_THROW((void)paired_permutation_test(kSerial, x, y, rng),
               std::invalid_argument);
  EXPECT_THROW((void)paired_permutation_test(kSerial, y, y, rng, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace varbench::stats
