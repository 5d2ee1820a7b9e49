#include "src/compare/error_rates.h"

#include <gtest/gtest.h>

namespace varbench::compare {
namespace {

TaskVarianceProfile demo_profile() {
  TaskVarianceProfile p;
  p.task = "demo";
  p.mu = 0.8;
  p.sigma_ideal = 0.02;
  p.sigma_bias = 0.008;
  p.sigma_within = 0.018;
  return p;
}

std::vector<std::unique_ptr<ComparisonCriterion>> demo_criteria(
    const TaskVarianceProfile& p) {
  std::vector<std::unique_ptr<ComparisonCriterion>> out;
  const double delta = published_improvement_delta(p.sigma_ideal);
  out.push_back(std::make_unique<OracleComparison>(p.sigma_ideal));
  out.push_back(std::make_unique<SinglePointComparison>(delta));
  out.push_back(std::make_unique<AverageComparison>(delta));
  out.push_back(std::make_unique<ProbOutperformCriterion>(0.75, 100));
  return out;
}

/// Detection rate of criterion ci at grid point gi, as rates[ci][gi]: the
/// hits of detection_rounds over every round, divided by the rounds per
/// grid point.
std::vector<std::vector<double>> detection_rates(
    const TaskVarianceProfile& p,
    std::span<const std::unique_ptr<ComparisonCriterion>> criteria,
    const DetectionRateConfig& cfg, rngx::Rng& rng) {
  const std::size_t grid =
      (cfg.p_grid.empty() ? default_p_grid() : cfg.p_grid).size();
  const std::size_t rounds = grid * cfg.simulations;
  const auto hits =
      detection_rounds(p, EstimatorKind::kIdeal, criteria, cfg,
                       exec::IndexRange{0, rounds}, rng);
  std::vector<std::vector<double>> rates(criteria.size(),
                                         std::vector<double>(grid, 0.0));
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t ci = 0; ci < criteria.size(); ++ci) {
      rates[ci][round / cfg.simulations] += hits[round][ci];
    }
  }
  for (auto& rate : rates) {
    for (double& r : rate) r /= static_cast<double>(cfg.simulations);
  }
  return rates;
}

TEST(DetectionRates, GridAndShape) {
  const auto p = demo_profile();
  const auto criteria = demo_criteria(p);
  DetectionRateConfig cfg;
  cfg.k = 20;
  cfg.simulations = 30;
  rngx::Rng rng{1};
  const auto rates = detection_rates(p, criteria, cfg, rng);
  EXPECT_EQ(rates.size(), 4u);
  for (std::size_t ci = 0; ci < rates.size(); ++ci) {
    EXPECT_EQ(rates[ci].size(), default_p_grid().size()) << ci;
    for (const double r : rates[ci]) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0);
    }
  }
}

TEST(DetectionRates, OracleRisesWithTrueEffect) {
  const auto p = demo_profile();
  std::vector<std::unique_ptr<ComparisonCriterion>> criteria;
  criteria.push_back(std::make_unique<OracleComparison>(p.sigma_ideal));
  DetectionRateConfig cfg;
  cfg.k = 10;  // small k so power at P=0.75 is not yet saturated
  cfg.simulations = 80;
  cfg.p_grid = {0.5, 0.75, 0.99};
  rngx::Rng rng{2};
  const auto r = detection_rates(p, criteria, cfg, rng)[0];  // oracle
  EXPECT_LT(r[0], 0.2);   // ≈ α at the null
  EXPECT_GT(r[2], 0.95);  // near-perfect power for huge effects
  EXPECT_LT(r[0], r[1]);
  EXPECT_LE(r[1], r[2]);
}

TEST(DetectionRates, AverageIsConservative) {
  // Fig. 6: the δ-thresholded average has low FP at the null AND high FN in
  // the meaningful region (compared to the oracle).
  const auto p = demo_profile();
  std::vector<std::unique_ptr<ComparisonCriterion>> criteria;
  const double delta = published_improvement_delta(p.sigma_ideal);
  criteria.push_back(std::make_unique<AverageComparison>(delta));
  criteria.push_back(std::make_unique<OracleComparison>(p.sigma_ideal));
  DetectionRateConfig cfg;
  cfg.k = 50;
  cfg.simulations = 80;
  cfg.p_grid = {0.5, 0.85};
  rngx::Rng rng{3};
  const auto rates = detection_rates(p, criteria, cfg, rng);
  const auto& average = rates[0];
  const auto& oracle = rates[1];
  EXPECT_LT(average[0], 0.05 + 0.06);
  EXPECT_LT(average[1], oracle[1]);
}

TEST(DetectionRates, SinglePointNoisierThanAverage) {
  // Single-point comparison has strictly more false positives at the null.
  const auto p = demo_profile();
  std::vector<std::unique_ptr<ComparisonCriterion>> criteria;
  const double delta = published_improvement_delta(p.sigma_ideal);
  criteria.push_back(std::make_unique<SinglePointComparison>(delta));
  criteria.push_back(std::make_unique<AverageComparison>(delta));
  DetectionRateConfig cfg;
  cfg.k = 50;
  cfg.simulations = 300;
  cfg.p_grid = {0.5};
  rngx::Rng rng{4};
  const auto rates = detection_rates(p, criteria, cfg, rng);
  EXPECT_GT(rates[0][0], rates[1][0]);  // single point vs average
}

TEST(ClassifyRegion, ThreeZones) {
  EXPECT_EQ(classify_region(0.45, 0.75), TruthRegion::kH0);
  EXPECT_EQ(classify_region(0.5, 0.75), TruthRegion::kH0);
  EXPECT_EQ(classify_region(0.6, 0.75), TruthRegion::kIntermediate);
  EXPECT_EQ(classify_region(0.75, 0.75), TruthRegion::kIntermediate);
  EXPECT_EQ(classify_region(0.9, 0.75), TruthRegion::kH1);
}

TEST(PublishedImprovementDelta, PaperCoefficient) {
  EXPECT_NEAR(published_improvement_delta(0.01), 0.019952, 1e-9);
}

TEST(DetectionRates, NoCriteriaThrows) {
  const auto p = demo_profile();
  const std::vector<std::unique_ptr<ComparisonCriterion>> empty;
  DetectionRateConfig cfg;
  rngx::Rng rng{5};
  EXPECT_THROW((void)detection_rounds(p, EstimatorKind::kIdeal, empty, cfg,
                                      exec::IndexRange{0, 1}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace varbench::compare
