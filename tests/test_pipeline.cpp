#include "src/core/pipeline.h"

#include <gtest/gtest.h>

#include "src/casestudies/mlp_pipeline.h"
#include "src/ml/synthetic.h"

namespace varbench::core {
namespace {

using casestudies::MlpPipeline;
using casestudies::MlpPipelineSpec;

ml::Dataset tiny_pool() {
  ml::GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 250;
  cfg.class_sep = 2.5;
  rngx::Rng rng{1};
  return ml::make_gaussian_mixture(cfg, rng);
}

MlpPipeline tiny_pipeline() {
  MlpPipelineSpec spec;
  spec.name = "tiny";
  spec.base.model.hidden = {6};
  spec.base.epochs = 5;
  spec.base.batch_size = 32;
  spec.space.add({"learning_rate", 0.001, 0.5, hpo::ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.1}};
  return MlpPipeline{std::move(spec)};
}

TEST(RunPipelineOnce, DefaultsPathCountsOneFit) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const OutOfBootstrapSplitter splitter{150, 60};
  FitCounter counter;
  const HpoRunConfig cfg;  // no HPO algorithm → defaults
  const rngx::VariationSeeds seeds;
  const double perf =
      run_pipeline_once(pipeline, pool, splitter, cfg, seeds, &counter);
  EXPECT_GT(perf, 0.5);
  EXPECT_LE(perf, 1.0);
  EXPECT_EQ(counter.fits, 1u);
}

TEST(RunPipelineOnce, HpoPathCountsBudgetPlusOne) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const OutOfBootstrapSplitter splitter{150, 60};
  const hpo::RandomSearch algo;
  HpoRunConfig cfg;
  cfg.algorithm = &algo;
  cfg.budget = 7;
  FitCounter counter;
  const rngx::VariationSeeds seeds;
  (void)run_pipeline_once(pipeline, pool, splitter, cfg, seeds, &counter);
  EXPECT_EQ(counter.fits, 8u);  // T trials + final retraining
}

TEST(RunPipelineOnce, ReproducibleWithSameSeeds) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const OutOfBootstrapSplitter splitter{150, 60};
  const HpoRunConfig cfg;
  const rngx::VariationSeeds seeds;
  const double p1 = run_pipeline_once(pipeline, pool, splitter, cfg, seeds);
  const double p2 = run_pipeline_once(pipeline, pool, splitter, cfg, seeds);
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(RunPipelineOnce, DataSplitSeedChangesMeasure) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const OutOfBootstrapSplitter splitter{150, 60};
  const HpoRunConfig cfg;
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.data_split = 777;
  const double pa = run_pipeline_once(pipeline, pool, splitter, cfg, a);
  const double pb = run_pipeline_once(pipeline, pool, splitter, cfg, b);
  // Different splits essentially always give different test sets; the
  // measures may rarely coincide, so compare the seeds' effect over 2 draws.
  rngx::VariationSeeds c;
  c.data_split = 778;
  const double pc = run_pipeline_once(pipeline, pool, splitter, cfg, c);
  EXPECT_TRUE(pa != pb || pa != pc);
}

TEST(RunHpo, ReturnsPointInSpace) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const hpo::RandomSearch algo;
  HpoRunConfig cfg;
  cfg.algorithm = &algo;
  cfg.budget = 5;
  const rngx::VariationSeeds seeds;
  const auto lambda = run_hpo(pipeline, pool, cfg, seeds);
  EXPECT_TRUE(pipeline.search_space().contains(lambda) ||
              lambda.count("learning_rate") == 1);
}

TEST(RunHpo, NullAlgorithmReturnsDefaults) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const HpoRunConfig cfg;
  const rngx::VariationSeeds seeds;
  EXPECT_EQ(run_hpo(pipeline, pool, cfg, seeds), pipeline.default_params());
}

TEST(RunHpo, HpoSeedChangesChosenParams) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const hpo::RandomSearch algo;
  HpoRunConfig cfg;
  cfg.algorithm = &algo;
  cfg.budget = 4;
  rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.hpo = 999;
  const auto la = run_hpo(pipeline, pool, cfg, a);
  const auto lb = run_hpo(pipeline, pool, cfg, b);
  EXPECT_NE(la.at("learning_rate"), lb.at("learning_rate"));
}

TEST(MeasureWithParams, UsesProvidedLambda) {
  const auto pool = tiny_pool();
  const auto pipeline = tiny_pipeline();
  const OutOfBootstrapSplitter splitter{150, 60};
  FitCounter counter;
  const rngx::VariationSeeds seeds;
  const double perf = measure_with_params(
      pipeline, pool, splitter, {{"learning_rate", 0.05}}, seeds, &counter);
  EXPECT_GT(perf, 0.4);
  EXPECT_EQ(counter.fits, 1u);
}

}  // namespace
}  // namespace varbench::core
