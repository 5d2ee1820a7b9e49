// Empirical verification of the paper's analytic claims against the
// simulators — the equations are not just implemented, they are *checked*:
//   Eq. 6:  MSE(µ̂(k)) = σ²/k for the ideal estimator
//   Eq. 7:  Var(µ̃(k)|ξ) = V/k + (k−1)/k·ρ·V for the biased estimator
//   App C:  P(A>B) ↔ mean-offset mapping under the normal model
#include <gtest/gtest.h>

#include <cmath>

#include "src/compare/simulation.h"
#include "src/stats/sample_size.h"
#include "src/core/estimators.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/tests.h"

namespace varbench {
namespace {

using compare::EstimatorKind;
using compare::TaskVarianceProfile;

TaskVarianceProfile profile_with_rho(double sigma, double rho) {
  TaskVarianceProfile p;
  p.task = "synthetic";
  p.mu = 0.5;
  p.sigma_ideal = sigma;
  p.sigma_bias = std::sqrt(rho) * sigma;
  p.sigma_within = std::sqrt(1.0 - rho) * sigma;
  return p;
}

class Equation7Sweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(Equation7Sweep, BiasedEstimatorVarianceMatchesFormula) {
  const double rho = std::get<0>(GetParam());
  const std::size_t k = std::get<1>(GetParam());
  const double sigma = 0.04;
  const auto p = profile_with_rho(sigma, rho);
  rngx::Rng rng{rngx::derive_seed(7, std::to_string(rho) + ":" +
                                         std::to_string(k))};
  constexpr std::size_t realizations = 4000;
  std::vector<double> means;
  means.reserve(realizations);
  for (std::size_t r = 0; r < realizations; ++r) {
    const auto x =
        compare::simulate_measures(p, EstimatorKind::kBiased, 0.0, k, rng);
    means.push_back(stats::mean(x));
  }
  const double predicted =
      core::biased_estimator_variance(sigma * sigma, rho, k);
  const double observed = stats::variance(means);
  EXPECT_NEAR(observed, predicted, predicted * 0.12)
      << "rho=" << rho << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    RhoAndK, Equation7Sweep,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.2, 0.5, 0.8),
                       ::testing::Values(2u, 5u, 20u, 100u)));

TEST(Equation6, IdealEstimatorMseIsSigmaSqOverK) {
  const double sigma = 0.03;
  const auto p = profile_with_rho(sigma, 0.0);
  rngx::Rng rng{11};
  for (const std::size_t k : {1u, 4u, 16u, 64u}) {
    std::vector<double> sq_err;
    for (int r = 0; r < 3000; ++r) {
      const auto x =
          compare::simulate_measures(p, EstimatorKind::kIdeal, 0.0, k, rng);
      const double e = stats::mean(x) - p.mu;
      sq_err.push_back(e * e);
    }
    const double mse = stats::mean(sq_err);
    EXPECT_NEAR(mse, sigma * sigma / static_cast<double>(k),
                sigma * sigma / static_cast<double>(k) * 0.12)
        << "k=" << k;
  }
}

TEST(AppendixC, PabOffsetMappingConsistentWithMannWhitney) {
  // Simulated data at target P(A>B) = γ: the Mann–Whitney effect size must
  // estimate γ.
  const auto p = profile_with_rho(0.03, 0.0);
  rngx::Rng rng{17};
  for (const double target : {0.6, 0.75, 0.9}) {
    const double offset =
        compare::mean_offset_for_probability(target, p.sigma_ideal);
    const auto a =
        compare::simulate_measures(p, EstimatorKind::kIdeal, offset, 20000,
                                   rng);
    const auto b =
        compare::simulate_measures(p, EstimatorKind::kIdeal, 0.0, 20000, rng);
    const auto mw = stats::mann_whitney_u(a, b);
    EXPECT_NEAR(mw.prob_a_greater, target, 0.01) << "target=" << target;
  }
}

TEST(AppendixC, NoetherNMatchesEmpiricalPowerOfSignTest) {
  // At N = Noether(γ, α, β) and true P(A>B) = γ, a one-sided sign-style
  // test at level α should have power ≈ 1−β. Monte-Carlo with the normal
  // model.
  const double gamma = 0.8;
  const std::size_t n = stats::noether_sample_size(gamma, 0.05, 0.2);
  const auto p = profile_with_rho(0.05, 0.0);
  const double offset =
      compare::mean_offset_for_probability(gamma, p.sigma_ideal);
  rngx::Rng rng{19};
  int detections = 0;
  constexpr int rounds = 1500;
  for (int r = 0; r < rounds; ++r) {
    const auto a =
        compare::simulate_measures(p, EstimatorKind::kIdeal, offset, n, rng);
    const auto b =
        compare::simulate_measures(p, EstimatorKind::kIdeal, 0.0, n, rng);
    const auto mw = stats::mann_whitney_u(a, b);
    // one-sided test of P(A>B) > 0.5 at alpha = 0.05
    if (mw.prob_a_greater > 0.5 && mw.p_value / 2.0 < 0.05) ++detections;
  }
  const double power = static_cast<double>(detections) / rounds;
  EXPECT_GT(power, 0.70);  // designed 0.8 minus Monte-Carlo/approx slack
}

TEST(Fig4, CostRatioFormula) {
  // ratio(k, T) = k(T+1)/(k+T); grows with both k and T.
  double prev = 0.0;
  for (const std::size_t k : {10u, 50u, 100u}) {
    const double ratio =
        static_cast<double>(core::ideal_estimator_cost(k, 200)) /
        static_cast<double>(core::fix_hopt_estimator_cost(k, 200));
    EXPECT_GT(ratio, prev);
    prev = ratio;
  }
}

}  // namespace
}  // namespace varbench
