// The determinism contract of the exec engine, checked end-to-end on every
// converted hot path: results are bit-identical for num_threads ∈ {1, 2, 8}
// (see docs/determinism.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/casestudies/mlp_pipeline.h"
#include "src/compare/criteria.h"
#include "src/compare/error_rates.h"
#include "src/compare/multiple.h"
#include "src/core/estimators.h"
#include "src/core/variance_study.h"
#include "src/hpo/hpo.h"
#include "src/ml/synthetic.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/stats/tests.h"

namespace varbench {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

ml::Dataset small_pool() {
  ml::GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 160;
  cfg.class_sep = 1.3;
  cfg.label_noise = 0.1;
  rngx::Rng rng{1};
  return ml::make_gaussian_mixture(cfg, rng);
}

casestudies::MlpPipeline small_pipeline() {
  casestudies::MlpPipelineSpec spec;
  spec.name = "determinism";
  spec.base.model.hidden = {5};
  spec.base.model.dropout = 0.2;
  spec.base.augment.jitter_std = 0.1;
  spec.base.epochs = 2;
  spec.base.batch_size = 32;
  spec.space.add({"learning_rate", 0.001, 0.5, hpo::ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.1}};
  return casestudies::MlpPipeline{std::move(spec)};
}

TEST(ExecDeterminism, VarianceStudyBitIdenticalAcrossThreadCounts) {
  const auto pool = small_pool();
  const auto pipeline = small_pipeline();
  const core::OutOfBootstrapSplitter splitter{90, 40};

  std::vector<core::VarianceStudyResult> results;
  for (const std::size_t threads : kThreadCounts) {
    core::VarianceStudyConfig cfg;
    cfg.repetitions = 4;
    cfg.hpo_algorithms = {"random_search"};
    cfg.hpo_repetitions = 2;
    cfg.hpo_budget = 2;
    cfg.exec = exec::ExecContext{threads};
    rngx::Rng master{42};
    results.push_back(
        core::run_variance_study(pipeline, pool, splitter, cfg, master));
  }
  const auto& reference = results.front();
  for (std::size_t t = 1; t < results.size(); ++t) {
    ASSERT_EQ(results[t].rows.size(), reference.rows.size());
    for (std::size_t r = 0; r < reference.rows.size(); ++r) {
      EXPECT_EQ(results[t].rows[r].label, reference.rows[r].label);
      EXPECT_EQ(results[t].rows[r].measures, reference.rows[r].measures)
          << "row " << reference.rows[r].label << " differs at "
          << kThreadCounts[t] << " threads";
      EXPECT_EQ(results[t].rows[r].mean, reference.rows[r].mean);
      EXPECT_EQ(results[t].rows[r].stddev, reference.rows[r].stddev);
    }
  }
}

TEST(ExecDeterminism, BootstrapCiBitIdenticalAcrossThreadCounts) {
  std::vector<double> x(300);
  rngx::Rng data_rng{7};
  for (double& v : x) v = data_rng.normal(2.0, 1.5);

  std::vector<stats::ConfidenceInterval> cis;
  for (const std::size_t threads : kThreadCounts) {
    rngx::Rng rng{9};
    cis.push_back(stats::percentile_bootstrap_ci(exec::ExecContext{threads},
                                                 x, rng, 2000));
  }
  EXPECT_EQ(cis[0], cis[1]);
  EXPECT_EQ(cis[0], cis[2]);
}

TEST(ExecDeterminism, PairedBootstrapCiBitIdenticalAcrossThreadCounts) {
  std::vector<double> a(120);
  std::vector<double> b(120);
  rngx::Rng data_rng{8};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.0, 1.0);
    b[i] = a[i] - data_rng.normal(0.3, 0.2);
  }
  std::vector<stats::ConfidenceInterval> cis;
  for (const std::size_t threads : kThreadCounts) {
    rngx::Rng rng{10};
    cis.push_back(stats::paired_percentile_bootstrap_ci(
        exec::ExecContext{threads}, a, b, rng, 1000));
  }
  EXPECT_EQ(cis[0], cis[1]);
  EXPECT_EQ(cis[0], cis[2]);
}

TEST(ExecDeterminism, DetectionRatesBitIdenticalAcrossThreadCounts) {
  compare::TaskVarianceProfile profile;
  profile.task = "synthetic";
  profile.mu = 0.8;
  profile.sigma_ideal = 0.02;
  profile.sigma_bias = 0.01;
  profile.sigma_within = 0.01;

  std::vector<std::vector<std::vector<std::uint8_t>>> hits;
  for (const std::size_t threads : kThreadCounts) {
    std::vector<std::unique_ptr<compare::ComparisonCriterion>> criteria;
    criteria.push_back(std::make_unique<compare::AverageComparison>(0.01));
    criteria.push_back(
        std::make_unique<compare::ProbOutperformCriterion>(0.75, 50));
    compare::DetectionRateConfig cfg;
    cfg.k = 10;
    cfg.simulations = 20;
    cfg.p_grid = {0.4, 0.5, 0.6, 0.75, 0.9};
    cfg.exec = exec::ExecContext{threads};
    rngx::Rng rng{11};
    hits.push_back(compare::detection_rounds(
        profile, compare::EstimatorKind::kBiased, criteria, cfg,
        exec::IndexRange{0, cfg.p_grid.size() * cfg.simulations}, rng));
  }
  EXPECT_EQ(hits[0], hits[1]);
  EXPECT_EQ(hits[0], hits[2]);
}

TEST(ExecDeterminism, RandomSearchParallelMatchesSerialBitwise) {
  hpo::SearchSpace space;
  space.add({"x", -2.0, 2.0, hpo::ScaleKind::kLinear});
  space.add({"y", 0.01, 10.0, hpo::ScaleKind::kLog});
  const hpo::Objective objective = [](const hpo::ParamPoint& p) {
    const double x = p.at("x");
    const double y = p.at("y");
    return x * x + (y - 1.0) * (y - 1.0);
  };
  const hpo::RandomSearch algo;
  rngx::Rng serial_rng{13};
  const auto serial = algo.optimize(space, objective, 40, serial_rng);
  const rngx::RngState post_serial_state = serial_rng.save_state();
  for (const std::size_t threads : {2u, 8u}) {
    rngx::Rng rng{13};
    const auto parallel =
        algo.optimize(exec::ExecContext{threads}, space, objective, 40, rng);
    ASSERT_EQ(parallel.trials.size(), serial.trials.size());
    EXPECT_EQ(parallel.best, serial.best);
    EXPECT_EQ(parallel.best_objective, serial.best_objective);
    for (std::size_t i = 0; i < serial.trials.size(); ++i) {
      EXPECT_EQ(parallel.trials[i].params, serial.trials[i].params);
      EXPECT_EQ(parallel.trials[i].objective, serial.trials[i].objective);
    }
    // The ξH stream must advance identically too.
    EXPECT_EQ(rng.save_state(), post_serial_state);
  }
}

TEST(ExecDeterminism, EstimatorsBitIdenticalAcrossThreadCounts) {
  const auto pool = small_pool();
  const auto pipeline = small_pipeline();
  const core::OutOfBootstrapSplitter splitter{90, 40};
  const hpo::RandomSearch algo;
  core::HpoRunConfig hpo_cfg;
  hpo_cfg.algorithm = &algo;
  hpo_cfg.budget = 2;

  std::vector<core::EstimatorResult> ideal;
  std::vector<core::EstimatorResult> biased;
  for (const std::size_t threads : kThreadCounts) {
    const exec::ExecContext ctx{threads};
    rngx::Rng m1{21};
    ideal.push_back(core::ideal_estimator(ctx, pipeline, pool, splitter,
                                          hpo_cfg, 4, {0, 4}, m1));
    rngx::Rng m2{22};
    biased.push_back(core::fix_hopt_estimator(ctx, pipeline, pool, splitter,
                                              hpo_cfg, 4,
                                              core::RandomizeSubset::kAll,
                                              {0, 4}, m2));
  }
  for (std::size_t t = 1; t < ideal.size(); ++t) {
    EXPECT_EQ(ideal[t].measures, ideal[0].measures)
        << "ideal_estimator differs at " << kThreadCounts[t] << " threads";
    EXPECT_EQ(ideal[t].fits, ideal[0].fits);
    EXPECT_EQ(biased[t].measures, biased[0].measures)
        << "fix_hopt_estimator differs at " << kThreadCounts[t] << " threads";
    EXPECT_EQ(biased[t].fits, biased[0].fits);
  }
}

TEST(ExecDeterminism, EstimatorShardSlicesMatchFullRun) {
  const auto pool = small_pool();
  const auto pipeline = small_pipeline();
  const core::OutOfBootstrapSplitter splitter{90, 40};
  const core::HpoRunConfig hpo_cfg;  // defaults only: fast
  constexpr std::size_t k = 5;

  rngx::Rng full_rng{23};
  const auto full = core::ideal_estimator(exec::ExecContext::serial(),
                                          pipeline, pool, splitter, hpo_cfg, k,
                                          {0, k}, full_rng);
  std::vector<double> stitched;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    rngx::Rng rng{23};
    const auto part = core::ideal_estimator(
        exec::ExecContext{2}, pipeline, pool, splitter, hpo_cfg, k,
        exec::shard_subrange(k, shard, 2), rng);
    stitched.insert(stitched.end(), part.measures.begin(),
                    part.measures.end());
  }
  EXPECT_EQ(stitched, full.measures);
}

TEST(ExecDeterminism, ProbOutperformTestBitIdenticalAcrossThreadCounts) {
  std::vector<double> a(40);
  std::vector<double> b(40);
  rngx::Rng data_rng{24};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.75, 0.02);
    b[i] = a[i] - data_rng.normal(0.01, 0.01);
  }
  std::vector<stats::ProbOutperformResult> results;
  for (const std::size_t threads : kThreadCounts) {
    rngx::Rng rng{25};
    results.push_back(stats::test_probability_of_outperforming(
        exec::ExecContext{threads}, a, b, rng, 0.75, 500));
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[t].p_a_greater_b, results[0].p_a_greater_b);
    EXPECT_EQ(results[t].ci, results[0].ci);
    EXPECT_EQ(results[t].conclusion, results[0].conclusion);
  }
}

TEST(ExecDeterminism, PermutationTestsBitIdenticalAcrossThreadCounts) {
  std::vector<double> a(35);
  std::vector<double> b(35);
  rngx::Rng data_rng{26};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = data_rng.normal(0.72, 0.03);
    b[i] = data_rng.normal(0.70, 0.03);
  }
  std::vector<stats::TestResult> unpaired;
  std::vector<stats::TestResult> paired;
  for (const std::size_t threads : kThreadCounts) {
    rngx::Rng rng{27};
    unpaired.push_back(stats::permutation_test_mean_diff(
        exec::ExecContext{threads}, a, b, rng, 1500));
    rngx::Rng paired_rng{28};
    paired.push_back(stats::paired_permutation_test(
        exec::ExecContext{threads}, a, b, paired_rng, 1500));
  }
  for (std::size_t t = 1; t < unpaired.size(); ++t) {
    EXPECT_EQ(unpaired[t], unpaired[0])
        << "permutation_test_mean_diff differs at " << kThreadCounts[t]
        << " threads";
    EXPECT_EQ(paired[t], paired[0])
        << "paired_permutation_test differs at " << kThreadCounts[t]
        << " threads";
  }
}

TEST(ExecDeterminism, RankingStabilityBitIdenticalAcrossThreadCounts) {
  compare::ContestantScores scores(4, std::vector<double>(25));
  rngx::Rng data_rng{14};
  for (std::size_t a = 0; a < scores.size(); ++a) {
    for (auto& v : scores[a]) {
      v = data_rng.normal(0.7 + 0.01 * static_cast<double>(a), 0.05);
    }
  }
  std::vector<compare::RankingStability> results;
  std::vector<compare::TopGroupResult> groups;
  for (const std::size_t threads : kThreadCounts) {
    rngx::Rng rng{15};
    results.push_back(compare::ranking_stability(exec::ExecContext{threads},
                                                 scores, rng, 400));
    rngx::Rng group_rng{16};
    groups.push_back(compare::significance_top_group(
        exec::ExecContext{threads}, scores, group_rng, 0.75, 0.05, 200));
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[t].prob_first, results[0].prob_first);
    const auto reference = results[0].rank_probability.data();
    const auto probe = results[t].rank_probability.data();
    ASSERT_EQ(probe.size(), reference.size());
    EXPECT_TRUE(std::equal(probe.begin(), probe.end(), reference.begin()));
    EXPECT_EQ(groups[t].best, groups[0].best);
    EXPECT_EQ(groups[t].group, groups[0].group);
  }
}

}  // namespace
}  // namespace varbench
