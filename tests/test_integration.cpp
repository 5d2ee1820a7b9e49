// Cross-module integration tests: the paper's full workflows end-to-end on
// down-scaled case studies.
#include <gtest/gtest.h>

#include "src/varbench.h"

namespace varbench {
namespace {

TEST(Integration, CompareTwoPipelinesWithPabTest) {
  // A strong pipeline vs a crippled one on the same task; paired P(A>B)
  // must flag the strong one as significantly and meaningfully better.
  const auto cs = casestudies::make_case_study("cifar10_vgg11", 0.1);
  hpo::ParamPoint good = cs.pipeline->default_params();
  hpo::ParamPoint bad = good;
  bad["learning_rate"] = 0.0011;  // bottom of the range: barely learns
  bad["weight_decay"] = 0.009;

  rngx::Rng master{1};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 12; ++i) {
    // Paired: same ξ for both algorithms (Appendix C.2).
    const auto seeds = rngx::VariationSeeds::random(master);
    a.push_back(core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                          good, seeds));
    b.push_back(core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                          bad, seeds));
  }
  auto rng = master.split("pab");
  const auto result =
      stats::test_probability_of_outperforming(exec::ExecContext{}, a, b, rng);
  EXPECT_EQ(result.conclusion,
            stats::ComparisonConclusion::kSignificantAndMeaningful);
}

TEST(Integration, IdenticalPipelinesNotDetected) {
  const auto cs = casestudies::make_case_study("glue_rte_bert", 0.1);
  const auto params = cs.pipeline->default_params();
  rngx::Rng master{2};
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 10; ++i) {
    // UNPAIRED seeds: two independent runs of the same algorithm.
    const auto sa = rngx::VariationSeeds::random(master);
    const auto sb = rngx::VariationSeeds::random(master);
    a.push_back(core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                          params, sa));
    b.push_back(core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                          params, sb));
  }
  auto rng = master.split("pab");
  const auto result =
      stats::test_probability_of_outperforming(exec::ExecContext{}, a, b, rng);
  EXPECT_NE(result.conclusion,
            stats::ComparisonConclusion::kSignificantAndMeaningful);
}

TEST(Integration, FullPipelineWithBayesOptHpo) {
  const auto cs = casestudies::make_case_study("mhc_mlp", 0.1);
  const hpo::BayesianOptimization algo;
  core::HpoRunConfig cfg;
  cfg.algorithm = &algo;
  cfg.budget = 6;
  core::FitCounter counter;
  const rngx::VariationSeeds seeds;
  const double perf = core::run_pipeline_once(*cs.pipeline, *cs.pool,
                                              *cs.splitter, cfg, seeds,
                                              &counter);
  EXPECT_GT(perf, 0.5);  // better than chance AUC
  EXPECT_EQ(counter.fits, 7u);
}

TEST(Integration, BiasedEstimatorCheaperThanIdeal) {
  const auto cs = casestudies::make_case_study("glue_sst2_bert", 0.1);
  const hpo::RandomSearch algo;
  core::HpoRunConfig cfg;
  cfg.algorithm = &algo;
  cfg.budget = 4;
  rngx::Rng m1{3};
  rngx::Rng m2{3};
  const exec::ExecContext serial = exec::ExecContext::serial();
  const auto ideal = core::ideal_estimator(serial, *cs.pipeline, *cs.pool,
                                           *cs.splitter, cfg, 4, {0, 4}, m1);
  const auto biased = core::fix_hopt_estimator(
      serial, *cs.pipeline, *cs.pool, *cs.splitter, cfg, 4,
      core::RandomizeSubset::kAll, {0, 4}, m2);
  EXPECT_GT(ideal.fits, biased.fits);
  // Both estimate the same µ; they should agree within a few σ.
  EXPECT_NEAR(ideal.mean, biased.mean,
              5.0 * (ideal.stddev + biased.stddev) + 0.05);
}

TEST(Integration, SimulatedDetectionPipelineMatchesCalibration) {
  // Wire calibration → profile → simulation → criterion, as the Fig. 6
  // bench does, and sanity-check both tails.
  const auto& calib = casestudies::calibration_for("pascalvoc_fcn");
  const auto profile = calib.profile(core::RandomizeSubset::kAll);
  rngx::Rng rng{4};
  const compare::ProbOutperformCriterion criterion{0.75, 200};
  int null_detections = 0;
  int strong_detections = 0;
  constexpr int rounds = 25;
  const double strong_offset = compare::mean_offset_for_probability(
      0.99, profile.sigma_biased_total());
  for (int i = 0; i < rounds; ++i) {
    const auto a0 = compare::simulate_measures(
        profile, compare::EstimatorKind::kBiased, 0.0, 30, rng);
    const auto b0 = compare::simulate_measures(
        profile, compare::EstimatorKind::kBiased, 0.0, 30, rng);
    if (criterion.detects(a0, b0, rng)) ++null_detections;
    const auto a1 = compare::simulate_measures(
        profile, compare::EstimatorKind::kBiased, strong_offset, 30, rng);
    const auto b1 = compare::simulate_measures(
        profile, compare::EstimatorKind::kBiased, 0.0, 30, rng);
    if (criterion.detects(a1, b1, rng)) ++strong_detections;
  }
  EXPECT_LE(null_detections, 4);
  EXPECT_GE(strong_detections, rounds / 2);
}

TEST(Integration, NoetherPlanningMatchesEmpiricalPower) {
  // Plan N for γ=0.75 via Noether, then verify the P(A>B) test detects a
  // true-γ effect at roughly the designed rate on simulated data.
  const std::size_t n = stats::noether_sample_size(0.75, 0.05, 0.2);
  compare::TaskVarianceProfile p;
  p.mu = 0.8;
  p.sigma_ideal = 0.02;
  p.sigma_within = 0.02;
  const double offset = compare::mean_offset_for_probability(0.9, 0.02);
  rngx::Rng rng{5};
  int detections = 0;
  constexpr int rounds = 40;
  for (int i = 0; i < rounds; ++i) {
    const auto a = compare::simulate_measures(
        p, compare::EstimatorKind::kIdeal, offset, n, rng);
    const auto b = compare::simulate_measures(
        p, compare::EstimatorKind::kIdeal, 0.0, n, rng);
    const auto r = stats::test_probability_of_outperforming(
        exec::ExecContext{}, a, b, rng, 0.75, 200);
    if (r.conclusion ==
        stats::ComparisonConclusion::kSignificantAndMeaningful) {
      ++detections;
    }
  }
  // True effect (0.9) is above the design point (0.75): power should be high.
  EXPECT_GE(detections, rounds / 2);
}

TEST(Integration, VarianceStudyBootstrapDominatesInit) {
  // The paper's headline Fig. 1 finding, verified end-to-end at small scale:
  // data-split variance >= weight-init variance on a small-test-set task.
  const auto cs = casestudies::make_case_study("glue_rte_bert", 0.12);
  core::VarianceStudyConfig cfg;
  cfg.repetitions = 12;
  cfg.include_numerical_noise = false;
  rngx::Rng master{6};
  const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                               *cs.splitter, cfg, master);
  double init_std = 0.0;
  for (const auto& row : result.rows) {
    if (row.source == rngx::VariationSource::kWeightInit) {
      init_std = row.stddev;
    }
  }
  EXPECT_GT(result.bootstrap_std(), 0.0);
  // Bootstrap should be at least comparable to init (paper: roughly 2×).
  EXPECT_GT(result.bootstrap_std(), 0.4 * init_std);
}

}  // namespace
}  // namespace varbench
