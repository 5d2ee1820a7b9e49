#include "src/hpo/hpo.h"

#include <gtest/gtest.h>

#include <cmath>

namespace varbench::hpo {
namespace {

// Smooth 2-d objective with a unique minimum at (lr=0.01, momentum=0.8).
double quadratic_objective(const ParamPoint& p) {
  const double a = std::log10(p.at("lr")) + 2.0;  // 0 at lr=0.01
  const double b = p.at("momentum") - 0.8;
  return a * a + 10.0 * b * b;
}

SearchSpace demo_space() {
  SearchSpace s;
  s.add({"lr", 1e-4, 1.0, ScaleKind::kLog})
      .add({"momentum", 0.5, 0.99, ScaleKind::kLinear});
  return s;
}

TEST(RandomSearch, FindsReasonableOptimum) {
  rngx::Rng rng{1};
  const RandomSearch algo;
  const auto r = algo.optimize(demo_space(), quadratic_objective, 100, rng);
  EXPECT_EQ(r.trials.size(), 100u);
  EXPECT_LT(r.best_objective, 0.3);
}

TEST(RandomSearch, BestMatchesTrials) {
  rngx::Rng rng{2};
  const RandomSearch algo;
  const auto r = algo.optimize(demo_space(), quadratic_objective, 50, rng);
  double min_obj = r.trials[0].objective;
  for (const auto& t : r.trials) min_obj = std::min(min_obj, t.objective);
  EXPECT_DOUBLE_EQ(r.best_objective, min_obj);
}

TEST(RandomSearch, SeedDeterminism) {
  rngx::Rng r1{3};
  rngx::Rng r2{3};
  const RandomSearch algo;
  const auto a = algo.optimize(demo_space(), quadratic_objective, 20, r1);
  const auto b = algo.optimize(demo_space(), quadratic_objective, 20, r2);
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
}

TEST(RandomSearch, DifferentSeedsExploreDifferently) {
  rngx::Rng r1{4};
  rngx::Rng r2{5};
  const RandomSearch algo;
  const auto a = algo.optimize(demo_space(), quadratic_objective, 20, r1);
  const auto b = algo.optimize(demo_space(), quadratic_objective, 20, r2);
  EXPECT_NE(a.trials[0].params.at("lr"), b.trials[0].params.at("lr"));
}

TEST(GridSearch, IsDeterministicAndIgnoresSeed) {
  rngx::Rng r1{6};
  rngx::Rng r2{77};
  const GridSearch algo;
  const auto a = algo.optimize(demo_space(), quadratic_objective, 49, r1);
  const auto b = algo.optimize(demo_space(), quadratic_objective, 49, r2);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trials[i].objective, b.trials[i].objective);
  }
}

TEST(GridSearch, CoversCorners) {
  const GridSearch algo;
  rngx::Rng rng{1};
  const auto r = algo.optimize(demo_space(), quadratic_objective, 9, rng);
  // 3×3 grid → 9 trials including all four corners.
  EXPECT_EQ(r.trials.size(), 9u);
  bool has_low_corner = false;
  for (const auto& t : r.trials) {
    if (std::abs(t.params.at("lr") - 1e-4) < 1e-12 &&
        std::abs(t.params.at("momentum") - 0.5) < 1e-12) {
      has_low_corner = true;
    }
  }
  EXPECT_TRUE(has_low_corner);
}

TEST(GridValues, LinearAndLogSpacing) {
  const Dimension lin{"x", 0.0, 10.0, ScaleKind::kLinear};
  const auto lv = grid_values(lin, 5);
  EXPECT_DOUBLE_EQ(lv[0], 0.0);
  EXPECT_DOUBLE_EQ(lv[2], 5.0);
  EXPECT_DOUBLE_EQ(lv[4], 10.0);
  const Dimension lg{"y", 1e-4, 1.0, ScaleKind::kLog};
  const auto gv = grid_values(lg, 5);
  EXPECT_NEAR(gv[1] / gv[0], 10.0, 1e-9);  // log-spaced decades
}

TEST(NoisyGridSearch, ExpectationCoversPlainGrid) {
  // Averaged over many seeds, the SORTED noisy grid values converge to the
  // plain grid (Appendix E.2's E[p̃ij] = pij); the evaluation order itself
  // is shuffled.
  const Dimension d{"x", 0.0, 10.0, ScaleKind::kLinear};
  SearchSpace space;
  space.add(d);
  const NoisyGridSearch algo;
  constexpr std::size_t budget = 5;
  std::vector<double> sums(budget, 0.0);
  constexpr int rounds = 3000;
  rngx::Rng rng{7};
  const Objective probe = [](const ParamPoint& p) { return p.at("x"); };
  for (int round = 0; round < rounds; ++round) {
    const auto r = algo.optimize(space, probe, budget, rng);
    std::vector<double> xs;
    for (const auto& t : r.trials) xs.push_back(t.params.at("x"));
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 0; i < budget; ++i) sums[i] += xs[i];
  }
  const auto plain = grid_values(d, budget);
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_NEAR(sums[i] / rounds, plain[i], 0.1);
  }
}

TEST(NoisyGridSearch, IntegerDimensionStaysPositive) {
  // Bound jitter must never push an integer dimension below 1.
  SearchSpace space;
  space.add({"hidden", 1.0, 4.0, ScaleKind::kLinear, /*integer=*/true});
  const NoisyGridSearch algo;
  rngx::Rng rng{42};
  const Objective probe = [](const ParamPoint& p) {
    EXPECT_GE(p.at("hidden"), 1.0);
    return 0.0;
  };
  for (int round = 0; round < 50; ++round) {
    (void)algo.optimize(space, probe, 6, rng);
  }
}

TEST(RandomSearch, IntegerDimensionStaysPositiveWithEnlargedBounds) {
  SearchSpace space;
  space.add({"hidden", 1.0, 4.0, ScaleKind::kLinear, /*integer=*/true});
  const RandomSearch algo;
  rngx::Rng rng{43};
  const Objective probe = [](const ParamPoint& p) {
    EXPECT_GE(p.at("hidden"), 1.0);
    return 0.0;
  };
  (void)algo.optimize(space, probe, 200, rng);
}

TEST(NoisyGridSearch, VariesAcrossSeeds) {
  rngx::Rng r1{8};
  rngx::Rng r2{9};
  const NoisyGridSearch algo;
  const auto a = algo.optimize(demo_space(), quadratic_objective, 25, r1);
  const auto b = algo.optimize(demo_space(), quadratic_objective, 25, r2);
  EXPECT_NE(a.trials[0].params.at("lr"), b.trials[0].params.at("lr"));
}

TEST(MakeHpoAlgorithm, FactoryNames) {
  EXPECT_EQ(make_hpo_algorithm("random_search")->name(), "random_search");
  EXPECT_EQ(make_hpo_algorithm("grid_search")->name(), "grid_search");
  EXPECT_EQ(make_hpo_algorithm("noisy_grid_search")->name(),
            "noisy_grid_search");
  EXPECT_EQ(make_hpo_algorithm("bayes_opt")->name(), "bayes_opt");
  EXPECT_THROW((void)make_hpo_algorithm("nope"), std::invalid_argument);
}

TEST(AllAlgorithms, ZeroBudgetThrows) {
  rngx::Rng rng{1};
  for (const auto* name :
       {"random_search", "grid_search", "noisy_grid_search", "bayes_opt"}) {
    const auto algo = make_hpo_algorithm(name);
    EXPECT_THROW(
        (void)algo->optimize(demo_space(), quadratic_objective, 0, rng),
        std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace varbench::hpo
