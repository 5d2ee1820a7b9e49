#include "src/core/variance_study.h"

#include <gtest/gtest.h>

#include "src/casestudies/mlp_pipeline.h"
#include "src/metrics/metrics.h"
#include "src/ml/synthetic.h"

namespace varbench::core {
namespace {

using casestudies::MlpPipeline;
using casestudies::MlpPipelineSpec;

ml::Dataset study_pool() {
  ml::GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 220;
  cfg.class_sep = 1.3;
  cfg.label_noise = 0.1;
  rngx::Rng rng{1};
  return ml::make_gaussian_mixture(cfg, rng);
}

MlpPipeline study_pipeline(double dropout = 0.2, double jitter = 0.1,
                           double numerical = 0.0) {
  MlpPipelineSpec spec;
  spec.name = "study";
  spec.base.model.hidden = {6};
  spec.base.model.dropout = dropout;
  spec.base.augment.jitter_std = jitter;
  spec.base.numerical_noise_std = numerical;
  spec.base.epochs = 4;
  spec.base.batch_size = 32;
  spec.space.add({"learning_rate", 0.001, 0.5, hpo::ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.1}};
  return MlpPipeline{std::move(spec)};
}

TEST(VarianceStudy, ProducesAllLearningSourceRows) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline();
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 6;
  cfg.include_numerical_noise = true;
  rngx::Rng master{2};
  const auto result =
      run_variance_study(pipeline, pool, splitter, cfg, master);
  // 5 ξO rows + 1 numerical row, no HPO rows requested.
  EXPECT_EQ(result.rows.size(), 6u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.measures.size(), 6u);
    EXPECT_GE(row.stddev, 0.0);
    EXPECT_FALSE(row.label.empty());
  }
}

TEST(VarianceStudy, NumericalNoiseZeroForDeterministicPipeline) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.2, 0.1, /*numerical=*/0.0);
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 4;
  rngx::Rng master{3};
  const auto result =
      run_variance_study(pipeline, pool, splitter, cfg, master);
  for (const auto& row : result.rows) {
    if (row.source == rngx::VariationSource::kNumerical) {
      EXPECT_DOUBLE_EQ(row.stddev, 0.0);
    }
  }
}

TEST(VarianceStudy, NumericalNoiseNonZeroWhenInjected) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.0, 0.0, /*numerical=*/0.05);
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 6;
  rngx::Rng master{4};
  const auto result =
      run_variance_study(pipeline, pool, splitter, cfg, master);
  for (const auto& row : result.rows) {
    if (row.source == rngx::VariationSource::kNumerical) {
      EXPECT_GT(row.stddev, 0.0);
    }
  }
}

TEST(VarianceStudy, BootstrapStdAccessible) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline();
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 8;
  rngx::Rng master{5};
  const auto result =
      run_variance_study(pipeline, pool, splitter, cfg, master);
  EXPECT_GT(result.bootstrap_std(), 0.0);
}

TEST(VarianceStudy, HpoRowsAppended) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline();
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 3;
  cfg.hpo_algorithms = {"random_search"};
  cfg.hpo_repetitions = 3;
  cfg.hpo_budget = 3;
  cfg.include_numerical_noise = false;
  rngx::Rng master{6};
  const auto result =
      run_variance_study(pipeline, pool, splitter, cfg, master);
  ASSERT_EQ(result.rows.size(), 6u);  // 5 ξO + 1 HPO algorithm
  const auto& hpo_row = result.rows.back();
  EXPECT_EQ(hpo_row.source, rngx::VariationSource::kHpo);
  EXPECT_EQ(hpo_row.label, "random_search");
  EXPECT_EQ(hpo_row.measures.size(), 3u);
}

TEST(VarianceStudy, NestedHpoLoopsRecordIntoTheCallersSink) {
  // The HPO repetition loop owns the hardware, so each HOpt trial loop runs
  // inline inside it — but still on the caller's sink, not the global one.
  const auto pool = study_pool();
  const auto pipeline = study_pipeline();
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 2;
  cfg.hpo_algorithms = {"random_search"};
  cfg.hpo_repetitions = 2;
  cfg.hpo_budget = 3;
  cfg.include_numerical_noise = false;
  metrics::Sink local;
  local.enable(metrics::kExecRegions);
  cfg.exec = exec::ExecContext{2};
  cfg.exec.metrics = &local;
  metrics::Sink& global = metrics::global_sink();
  global.reset();
  global.enable(metrics::kExecRegions);
  rngx::Rng master{8};
  (void)run_variance_study(pipeline, pool, splitter, cfg, master);
  const metrics::Snapshot leaked = global.snapshot();
  global.disable(metrics::kExecRegions);
  global.reset();
  ASSERT_NE(leaked.find(metrics::kExecRegions), nullptr);
  EXPECT_EQ(leaked.find(metrics::kExecRegions)->count, 0u);
  const metrics::Snapshot recorded = local.snapshot();
  ASSERT_NE(recorded.find(metrics::kExecRegions), nullptr);
  // One plan region for the 5 ξO loops and the HPO repetition loop, plus
  // one inline trial loop per repetition.
  EXPECT_EQ(recorded.find(metrics::kExecRegions)->count, 3u);
}

TEST(VarianceStudy, TooFewRepetitionsThrows) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline();
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 1;
  rngx::Rng master{7};
  EXPECT_THROW(
      (void)run_variance_study(pipeline, pool, splitter, cfg, master),
      std::invalid_argument);
}

}  // namespace
}  // namespace varbench::core
