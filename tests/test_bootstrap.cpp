#include "src/stats/bootstrap.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/stats/descriptive.h"

namespace varbench::stats {
namespace {

TEST(PercentileBootstrapCi, ContainsSampleMean) {
  rngx::Rng rng{2};
  std::vector<double> x(200);
  rngx::Rng data_rng{3};
  for (double& v : x) v = data_rng.normal(10.0, 2.0);
  const auto ci = percentile_bootstrap_ci(
      x, [](std::span<const double> s) { return mean(s); }, rng, 2000);
  EXPECT_LT(ci.lower, mean(x));
  EXPECT_GT(ci.upper, mean(x));
  EXPECT_DOUBLE_EQ(ci.level, 0.95);
}

TEST(PercentileBootstrapCi, WidthMatchesTheory) {
  // For the mean of n normal draws, the 95% CI width should be close to
  // 2·1.96·σ/√n.
  rngx::Rng rng{4};
  std::vector<double> x(400);
  rngx::Rng data_rng{5};
  for (double& v : x) v = data_rng.normal(0.0, 1.0);
  const auto ci = percentile_bootstrap_ci(
      x, [](std::span<const double> s) { return mean(s); }, rng, 4000);
  const double width = ci.upper - ci.lower;
  const double theory = 2.0 * 1.96 / 20.0;  // σ=1, √n=20
  EXPECT_NEAR(width, theory, theory * 0.25);
}

TEST(PercentileBootstrapCi, CoverageNearNominal) {
  // Property check: ~95% of CIs should contain the true mean.
  rngx::Rng master{6};
  int covered = 0;
  constexpr int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> x(60);
    for (double& v : x) v = master.normal(3.0, 1.0);
    auto ci_rng = master.split("ci");
    const auto ci = percentile_bootstrap_ci(
        x, [](std::span<const double> s) { return mean(s); }, ci_rng, 500);
    if (ci.lower <= 3.0 && 3.0 <= ci.upper) ++covered;
  }
  const double coverage = static_cast<double>(covered) / rounds;
  EXPECT_GT(coverage, 0.88);
  EXPECT_LE(coverage, 1.0);
}

TEST(PercentileBootstrapCi, AlphaControlsWidth) {
  rngx::Rng rng1{7};
  rngx::Rng rng2{7};
  std::vector<double> x(100);
  rngx::Rng data_rng{8};
  for (double& v : x) v = data_rng.normal();
  const auto wide = percentile_bootstrap_ci(
      x, [](std::span<const double> s) { return mean(s); }, rng1, 2000, 0.01);
  const auto narrow = percentile_bootstrap_ci(
      x, [](std::span<const double> s) { return mean(s); }, rng2, 2000, 0.20);
  EXPECT_GT(wide.upper - wide.lower, narrow.upper - narrow.lower);
}

TEST(PercentileBootstrapCi, EmptyThrows) {
  rngx::Rng rng{1};
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile_bootstrap_ci(
                   empty, [](std::span<const double>) { return 0.0; }, rng),
               std::invalid_argument);
}

TEST(BcaBootstrapCi, ContainsSampleMeanAndMatchesLevel) {
  rngx::Rng rng{11};
  std::vector<double> x(200);
  rngx::Rng data_rng{12};
  for (double& v : x) v = data_rng.normal(10.0, 2.0);
  const auto ci = bca_bootstrap_ci(
      x, [](std::span<const double> s) { return mean(s); }, rng, 2000);
  EXPECT_LT(ci.lower, mean(x));
  EXPECT_GT(ci.upper, mean(x));
  EXPECT_DOUBLE_EQ(ci.level, 0.95);
}

TEST(BcaBootstrapCi, NearPercentileForSymmetricStatistic) {
  // For the mean of symmetric data, z0 ~ 0 and a ~ 0 — the BCa interval
  // must land close to the percentile interval from the same resamples.
  rngx::Rng rng_p{13};
  rngx::Rng rng_b{13};
  std::vector<double> x(300);
  rngx::Rng data_rng{14};
  for (double& v : x) v = data_rng.normal(0.0, 1.0);
  const auto mean_stat = [](std::span<const double> s) { return mean(s); };
  const auto pct = percentile_bootstrap_ci(x, mean_stat, rng_p, 4000);
  const auto bca = bca_bootstrap_ci(x, mean_stat, rng_b, 4000);
  const double width = pct.upper - pct.lower;
  EXPECT_NEAR(bca.lower, pct.lower, 0.15 * width);
  EXPECT_NEAR(bca.upper, pct.upper, 0.15 * width);
}

TEST(BcaBootstrapCi, CoverageNearNominalForSkewedStatistic) {
  // The point of BCa: coverage holds up for a skewed statistic (variance
  // of lognormal-ish data) where the percentile interval is off-center.
  rngx::Rng master{15};
  int covered = 0;
  constexpr int rounds = 150;
  constexpr double true_mean = 1.0;  // of exp(Z)/E[exp(Z)] scaled below
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> x(80);
    // exp(normal): mean e^{1/2}, normalized to true mean 1.
    for (double& v : x) {
      v = std::exp(master.normal(0.0, 1.0)) / std::exp(0.5);
    }
    auto ci_rng = master.split("ci");
    const auto ci = bca_bootstrap_ci(
        x, [](std::span<const double> s) { return mean(s); }, ci_rng, 600);
    if (ci.lower <= true_mean && true_mean <= ci.upper) ++covered;
  }
  const double coverage = static_cast<double>(covered) / rounds;
  EXPECT_GT(coverage, 0.82);  // percentile-only typically under-covers more
  EXPECT_LE(coverage, 1.0);
}

TEST(BcaBootstrapCi, ThreadCountInvariant) {
  std::vector<double> x(60);
  rngx::Rng data_rng{16};
  for (double& v : x) v = data_rng.normal(2.0, 0.5);
  const auto mean_stat = [](std::span<const double> s) { return mean(s); };
  rngx::Rng rng_serial{17};
  rngx::Rng rng_parallel{17};
  const auto serial = bca_bootstrap_ci(x, mean_stat, rng_serial, 800);
  const auto parallel = bca_bootstrap_ci(exec::ExecContext{4}, x, mean_stat,
                                         rng_parallel, 800);
  EXPECT_EQ(serial, parallel);
}

TEST(BcaBootstrapCi, EmptyThrows) {
  rngx::Rng rng{1};
  const std::vector<double> empty;
  EXPECT_THROW((void)bca_bootstrap_ci(
                   empty, [](std::span<const double>) { return 0.0; }, rng),
               std::invalid_argument);
}

TEST(PairedPercentileBootstrapCi, PreservesPairing) {
  // Statistic = mean difference. With perfectly paired data (b = a - 1),
  // the paired CI must be degenerate at exactly 1.0.
  rngx::Rng rng{9};
  std::vector<double> a(50);
  std::vector<double> b(50);
  rngx::Rng data_rng{10};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.0, 5.0);
    b[i] = a[i] - 1.0;
  }
  const auto ci = paired_percentile_bootstrap_ci(
      a, b,
      [](std::span<const double> ra, std::span<const double> rb) {
        double d = 0.0;
        for (std::size_t i = 0; i < ra.size(); ++i) d += ra[i] - rb[i];
        return d / static_cast<double>(ra.size());
      },
      rng, 500);
  EXPECT_NEAR(ci.lower, 1.0, 1e-9);
  EXPECT_NEAR(ci.upper, 1.0, 1e-9);
}

TEST(PairedPercentileBootstrapCi, MismatchedSizesThrow) {
  rngx::Rng rng{1};
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW(
      (void)paired_percentile_bootstrap_ci(
          a, b,
          [](std::span<const double>, std::span<const double>) { return 0.0; },
          rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace varbench::stats
