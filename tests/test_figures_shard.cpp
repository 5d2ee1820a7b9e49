// Shard/merge byte-identity for the figure study kinds, mirroring
// tests/test_study_shard.cpp: running a figure spec in N shards — each
// shard at a DIFFERENT thread count — and merging the artifacts must be
// bit-identical to the unsharded run, because every repetition/grid unit
// runs on an RNG stream keyed by its global index (docs/study_api.md).
// The runners that put several tasks into one plan also give the same text
// at every thread count.
#include <gtest/gtest.h>

#include "src/metrics/metrics.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

StudySpec tiny_figure_spec(StudyKind kind) {
  StudySpec spec = default_spec(kind);
  spec.scale = 0.08;
  spec.seed = 20260727;
  switch (kind) {
    case StudyKind::kFig01VarianceSources:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.hpo_repetitions = 2;
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kFig06DetectionRates:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11", "glue_rte_bert"};
      spec.figure.k = 5;
      spec.figure.resamples = 10;
      spec.figure.p_grid = {0.5, 0.9};
      break;
    case StudyKind::kFigH5MseDecomposition:
      spec.repetitions = 6;
      spec.figure.tasks = {"glue_rte_bert"};
      spec.figure.k = 5;
      break;
    case StudyKind::kFig05EstimatorStderr:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.k_grid = {1, 5};
      break;
    case StudyKind::kFigG3Normality:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      break;
    case StudyKind::kMultiDataset:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11"};
      break;
    default:
      break;  // analytic kinds run their defaults
  }
  return spec;
}

void expect_shards_merge_to_unsharded(StudyKind kind,
                                      std::size_t shard_count,
                                      const ResultTable& unsharded) {
  const StudySpec spec = tiny_figure_spec(kind);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, shard_count};
    // Vary the thread count per shard: results must not depend on it.
    shard_spec.threads = 1 + i;
    shards.push_back(run_study(shard_spec));
    EXPECT_FALSE(shards.back().is_complete());
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text())
      << to_string(kind) << " " << shard_count << "-shard merge diverged";
  EXPECT_EQ(merged.rows.size(), unsharded.rows.size());
}

void expect_kind_shards_exactly(StudyKind kind) {
  const ResultTable unsharded = run_study(tiny_figure_spec(kind));
  ASSERT_TRUE(unsharded.is_complete());
  ASSERT_GT(unsharded.rows.size(), 0u);
  expect_shards_merge_to_unsharded(kind, 2, unsharded);
  expect_shards_merge_to_unsharded(kind, 3, unsharded);
}

TEST(FigureShard, Fig01TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig01VarianceSources);
}

TEST(FigureShard, Fig06TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig06DetectionRates);
}

TEST(FigureShard, FigH5TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFigH5MseDecomposition);
}

TEST(FigureShard, Fig05TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFig05EstimatorStderr);
}

TEST(FigureShard, FigG3TwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kFigG3Normality);
}

TEST(FigureShard, MultiDatasetTwoAndThreeShards) {
  expect_kind_shards_exactly(StudyKind::kMultiDataset);
}

TEST(FigureShard, AnalyticGridsShard) {
  expect_kind_shards_exactly(StudyKind::kFigC1SampleSize);
  expect_kind_shards_exactly(StudyKind::kFig04EstimatorCost);
  expect_kind_shards_exactly(StudyKind::kFig03Sota);
}

TEST(FigureShard, MoreShardsThanUnits) {
  // Slices beyond the unit count are empty and must merge cleanly.
  const StudySpec spec = tiny_figure_spec(StudyKind::kFigH5MseDecomposition);
  const ResultTable unsharded = run_study(spec);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 9; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 9};
    shards.push_back(run_study(shard_spec));
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text());
}

TEST(FigureShard, ArtifactsSurviveSerialization) {
  // Merge after a JSON round-trip of each shard — the cross-process path
  // campaign workers take.
  const StudySpec spec = tiny_figure_spec(StudyKind::kFig06DetectionRates);
  const ResultTable unsharded = run_study(spec);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 2};
    const ResultTable t = run_study(shard_spec);
    shards.push_back(ResultTable::from_json_text(t.to_json_text()));
    EXPECT_EQ(shards.back(), t);
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text());
}

// ------------------------------------------------------------- flat plans

/// A kind whose runner puts every task's ranges into one plan (table8: one
/// region of fits), over several tasks but not pascalvoc_fcn, whose fits
/// carry deliberately unseeded numerical noise.
StudySpec flat_plan_spec(StudyKind kind) {
  StudySpec spec = tiny_figure_spec(kind);
  switch (kind) {
    case StudyKind::kFig01VarianceSources:
    case StudyKind::kFigG3Normality:
    case StudyKind::kMultiDataset:
      spec.figure.tasks = {"glue_rte_bert", "mhc_mlp", "cifar10_vgg11"};
      break;
    case StudyKind::kFigF2HpoCurves:
      spec.repetitions = 3;
      spec.figure.tasks = {"glue_rte_bert", "mhc_mlp"};
      spec.figure.hpo_algorithms = {"random_search", "bayes_opt"};
      spec.figure.budget = 3;
      break;
    case StudyKind::kTable8MhcModels:
      spec.repetitions = 3;
      break;
    default:
      break;
  }
  return spec;
}

TEST(FlatPlans, SameTextAtOneTwoAndFourThreadsAndAcrossShards) {
  for (const StudyKind kind :
       {StudyKind::kFig01VarianceSources, StudyKind::kFigG3Normality,
        StudyKind::kMultiDataset, StudyKind::kFigF2HpoCurves,
        StudyKind::kTable8MhcModels}) {
    StudySpec spec = flat_plan_spec(kind);
    spec.threads = 1;
    const ResultTable serial = run_study(spec);
    ASSERT_TRUE(serial.is_complete()) << to_string(kind);
    ASSERT_GT(serial.rows.size(), 0u) << to_string(kind);
    for (const std::size_t threads : {2u, 4u}) {
      spec.threads = threads;
      EXPECT_EQ(run_study(spec).canonical_text(), serial.canonical_text())
          << to_string(kind) << " at " << threads << " threads";
    }
    std::vector<ResultTable> shards;
    for (std::size_t i = 0; i < 3; ++i) {
      StudySpec shard_spec = spec;
      shard_spec.shard = ShardSpec{i, 3};
      shards.push_back(run_study(shard_spec));
    }
    EXPECT_EQ(merge_result_tables(std::move(shards)).canonical_text(),
              serial.canonical_text())
        << to_string(kind) << " 3-shard merge diverged";
  }
}

// Each runner puts every replicate range into its one plan: fig01's
// probes, and the groups fig02, fig05, figH5, figI6, ablation_pairing and
// ablation_splitters once ran as one region each. Regions nested inside a
// replicate (HOpt trials, the criteria's resampling) run inline.
TEST(FlatPlans, EveryPlanFansOutExactlyOneRegion) {
  std::vector<StudySpec> specs{
      flat_plan_spec(StudyKind::kFig01VarianceSources)};
  for (const char* text : {
           R"({"kind": "fig02_binomial_model", "scale": 0.1, "repetitions": 3,
               "params": {"tasks": ["glue_rte_bert", "cifar10_vgg11"]}})",
           R"({"kind": "fig05_estimator_stderr", "repetitions": 3,
               "params": {"tasks": ["glue_rte_bert", "mhc_mlp"],
                          "k_grid": [1, 5]}})",
           R"({"kind": "figH5_mse_decomposition", "repetitions": 4,
               "params": {"tasks": ["glue_rte_bert"], "k": 5}})",
           R"({"kind": "figI6_robustness", "repetitions": 4,
               "params": {"resamples": 10, "k_grid": [10, 29],
                          "gamma_grid": [0.6, 0.75], "p_grid": [0.5, 0.8]}})",
           R"({"kind": "ablation_pairing", "repetitions": 4,
               "params": {"resamples": 10}})",
           R"({"kind": "ablation_splitters", "scale": 0.1,
               "repetitions": 3})"}) {
    specs.push_back(StudySpec::from_json_text(text));
  }
  metrics::Sink& sink = metrics::global_sink();
  for (StudySpec& spec : specs) {
    spec.threads = 4;
    sink.reset();
    sink.enable(metrics::kExecRegionThreads);
    (void)run_study(spec);
    const metrics::Snapshot snap = sink.snapshot();
    sink.disable(metrics::kExecRegionThreads);
    sink.reset();
    const auto* threads = snap.find(metrics::kExecRegionThreads);
    ASSERT_NE(threads, nullptr) << to_string(spec.kind);
    EXPECT_EQ(threads->count - threads->bins[metrics::bin_index(1)], 1u)
        << to_string(spec.kind);
    EXPECT_EQ(threads->bins[metrics::bin_index(4)], 1u)
        << to_string(spec.kind);
  }
}

}  // namespace
}  // namespace varbench::study
