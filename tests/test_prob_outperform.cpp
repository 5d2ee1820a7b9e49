#include "src/stats/prob_outperform.h"

#include <gtest/gtest.h>

namespace varbench::stats {
namespace {

const exec::ExecContext kSerial{};

TEST(ProbOutperform, CountsWinsAndTies) {
  const std::vector<double> a{2.0, 1.0, 3.0, 5.0};
  const std::vector<double> b{1.0, 1.0, 4.0, 4.0};
  // wins: 1 (2>1), tie 0.5, loss, win → 2.5/4
  EXPECT_DOUBLE_EQ(probability_of_outperforming(a, b), 0.625);
}

TEST(ProbOutperform, IdenticalSamplesGiveHalf) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(probability_of_outperforming(a, a), 0.5);
}

TEST(ProbOutperform, BadInputsThrow) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)probability_of_outperforming(a, b),
               std::invalid_argument);
  const std::vector<double> empty;
  EXPECT_THROW((void)probability_of_outperforming(empty, empty),
               std::invalid_argument);
}

TEST(ProbOutperformTest, ClearWinnerIsSignificantAndMeaningful) {
  rngx::Rng rng{1};
  std::vector<double> a(40);
  std::vector<double> b(40);
  rngx::Rng data{2};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data.normal(1.0, 0.2);
    b[i] = data.normal(0.0, 0.2);
  }
  const auto r = test_probability_of_outperforming(kSerial, a, b, rng);
  EXPECT_EQ(r.conclusion, ComparisonConclusion::kSignificantAndMeaningful);
  EXPECT_TRUE(r.significant());
  EXPECT_TRUE(r.meaningful());
  EXPECT_GT(r.p_a_greater_b, 0.9);
}

TEST(ProbOutperformTest, EqualAlgorithmsNotSignificant) {
  rngx::Rng rng{3};
  std::vector<double> a(40);
  std::vector<double> b(40);
  rngx::Rng data{4};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data.normal(0.0, 1.0);
    b[i] = data.normal(0.0, 1.0);
  }
  const auto r = test_probability_of_outperforming(kSerial, a, b, rng);
  EXPECT_EQ(r.conclusion, ComparisonConclusion::kNotSignificant);
}

TEST(ProbOutperformTest, SmallRealDifferenceSignificantButNotMeaningful) {
  // Huge sample, tiny shift: significance without meaningfulness — the
  // paper's H0H1 middle zone.
  rngx::Rng rng{5};
  std::vector<double> a(4000);
  std::vector<double> b(4000);
  rngx::Rng data{6};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data.normal(0.15, 1.0);
    b[i] = data.normal(0.0, 1.0);
  }
  const auto r =
      test_probability_of_outperforming(kSerial, a, b, rng, 0.75, 500);
  EXPECT_EQ(r.conclusion, ComparisonConclusion::kNotMeaningful);
  EXPECT_TRUE(r.significant());
  EXPECT_FALSE(r.meaningful());
}

TEST(ProbOutperformTest, CiBracketsPointEstimate) {
  rngx::Rng rng{7};
  std::vector<double> a(30);
  std::vector<double> b(30);
  rngx::Rng data{8};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data.normal(0.5, 1.0);
    b[i] = data.normal(0.0, 1.0);
  }
  const auto r = test_probability_of_outperforming(kSerial, a, b, rng);
  EXPECT_LE(r.ci.lower, r.p_a_greater_b);
  EXPECT_GE(r.ci.upper, r.p_a_greater_b);
}

TEST(ProbOutperformTest, FalsePositiveRateControlled) {
  // Under H0, the rate of "significant and meaningful" must stay near α.
  rngx::Rng master{9};
  int detections = 0;
  constexpr int rounds = 150;
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> a(30);
    std::vector<double> b(30);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = master.normal();
      b[i] = master.normal();
    }
    auto rng = master.split("test");
    const auto r =
        test_probability_of_outperforming(kSerial, a, b, rng, 0.75, 300);
    if (r.conclusion == ComparisonConclusion::kSignificantAndMeaningful) {
      ++detections;
    }
  }
  EXPECT_LE(static_cast<double>(detections) / rounds, 0.08);
}

TEST(ConclusionToString, AllNamed) {
  EXPECT_EQ(to_string(ComparisonConclusion::kNotSignificant),
            "not significant");
  EXPECT_EQ(to_string(ComparisonConclusion::kNotMeaningful),
            "significant but not meaningful");
  EXPECT_EQ(to_string(ComparisonConclusion::kSignificantAndMeaningful),
            "significant and meaningful");
}

}  // namespace
}  // namespace varbench::stats
