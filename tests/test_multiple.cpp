#include "src/compare/multiple.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace varbench::compare {
namespace {

const exec::ExecContext kSerial = exec::ExecContext::serial();

ContestantScores three_contestants(std::size_t k, rngx::Rng& rng) {
  // 0: weak, 1: strong, 2: strong (tied with 1 within noise).
  ContestantScores s(3);
  for (std::size_t i = 0; i < k; ++i) {
    const double shared = rng.normal(0.0, 0.05);  // paired split effect
    s[0].push_back(0.70 + shared + rng.normal(0.0, 0.01));
    s[1].push_back(0.80 + shared + rng.normal(0.0, 0.01));
    s[2].push_back(0.801 + shared + rng.normal(0.0, 0.01));
  }
  return s;
}

TEST(PairwisePab, MatrixStructure) {
  rngx::Rng rng{1};
  const auto scores = three_contestants(40, rng);
  const auto m = pairwise_pab_matrix(scores);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 0.5);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(m(i, j) + m(j, i), 1.0, 1e-12);  // antisymmetry
    }
  }
  EXPECT_GT(m(1, 0), 0.9);   // strong beats weak almost always
  EXPECT_LT(m(0, 2), 0.1);
  EXPECT_NEAR(m(1, 2), 0.5, 0.35);  // the two strong ones are close
}

TEST(PairwisePab, BadInputsThrow) {
  EXPECT_THROW((void)pairwise_pab_matrix({{1.0}}), std::invalid_argument);
  EXPECT_THROW((void)pairwise_pab_matrix({{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)pairwise_pab_matrix({{}, {}}), std::invalid_argument);
}

TEST(TopGroup, KeepsIndistinguishableContestants) {
  rngx::Rng rng{2};
  const auto scores = three_contestants(40, rng);
  auto test_rng = rng.split("test");
  const auto result = significance_top_group(kSerial, scores, test_rng);
  // Best is 1 or 2; both must be in the group; 0 must not.
  EXPECT_TRUE(result.best == 1 || result.best == 2);
  EXPECT_TRUE(std::find(result.group.begin(), result.group.end(), 1u) !=
              result.group.end());
  EXPECT_TRUE(std::find(result.group.begin(), result.group.end(), 2u) !=
              result.group.end());
  EXPECT_TRUE(std::find(result.group.begin(), result.group.end(), 0u) ==
              result.group.end());
  EXPECT_NEAR(result.adjusted_alpha, 0.025, 1e-12);  // 0.05 / 2 comparisons
}

TEST(TopGroup, SingleDominantContestantAlone) {
  rngx::Rng rng{3};
  ContestantScores s(2);
  for (int i = 0; i < 40; ++i) {
    s[0].push_back(rng.normal(0.9, 0.01));
    s[1].push_back(rng.normal(0.5, 0.01));
  }
  auto test_rng = rng.split("test");
  const auto result = significance_top_group(kSerial, s, test_rng);
  EXPECT_EQ(result.best, 0u);
  EXPECT_EQ(result.group, (std::vector<std::size_t>{0}));
}

TEST(RankingStability, ProbabilitiesAreDistributions) {
  rngx::Rng rng{4};
  const auto scores = three_contestants(30, rng);
  auto boot_rng = rng.split("boot");
  const auto r = ranking_stability(kSerial, scores, boot_rng, 500);
  for (std::size_t a = 0; a < 3; ++a) {
    double row_sum = 0.0;
    for (std::size_t rank = 0; rank < 3; ++rank) {
      const double p = r.rank_probability(a, rank);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      row_sum += p;
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
  }
}

TEST(RankingStability, WeakContestantNeverFirst) {
  rngx::Rng rng{5};
  const auto scores = three_contestants(30, rng);
  auto boot_rng = rng.split("boot");
  const auto r = ranking_stability(kSerial, scores, boot_rng, 500);
  EXPECT_LT(r.prob_first[0], 0.01);
  // The two strong contestants split the first place — the paper's point
  // that competition winners carry arbitrariness.
  EXPECT_GT(r.prob_first[1] + r.prob_first[2], 0.99);
  EXPECT_GT(std::min(r.prob_first[1], r.prob_first[2]), 0.02);
}

TEST(RankingStability, DeterministicScoresGiveDegenerateRanking) {
  ContestantScores s{{0.9, 0.9, 0.9}, {0.5, 0.5, 0.5}};
  rngx::Rng rng{6};
  const auto r = ranking_stability(kSerial, s, rng, 200);
  EXPECT_DOUBLE_EQ(r.prob_first[0], 1.0);
  EXPECT_DOUBLE_EQ(r.prob_first[1], 0.0);
}

}  // namespace
}  // namespace varbench::compare
