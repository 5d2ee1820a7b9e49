#include "src/core/variance_study.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>

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

/// Forwards every call to `inner` and counts the fits. With
/// `forward_reads` false it keeps LearningPipeline's default reads(), so
/// every probe trains each of its repetitions.
class ForwardingPipeline final : public LearningPipeline {
 public:
  ForwardingPipeline(const LearningPipeline& inner, bool forward_reads)
      : inner_{inner}, forward_reads_{forward_reads} {}

  [[nodiscard]] double train_and_evaluate(
      const ml::Dataset& train, const ml::Dataset& test,
      const hpo::ParamPoint& lambda,
      const rngx::VariationSeeds& seeds) const override {
    ++fits;
    return inner_.train_and_evaluate(train, test, lambda, seeds);
  }
  [[nodiscard]] const hpo::SearchSpace& search_space() const override {
    return inner_.search_space();
  }
  [[nodiscard]] hpo::ParamPoint default_params() const override {
    return inner_.default_params();
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] ml::Metric metric() const override { return inner_.metric(); }
  [[nodiscard]] bool reads(rngx::VariationSource source,
                           const hpo::ParamPoint& lambda) const override {
    return forward_reads_ ? inner_.reads(source, lambda)
                          : LearningPipeline::reads(source, lambda);
  }

  mutable std::atomic<std::size_t> fits{0};

 private:
  const LearningPipeline& inner_;
  bool forward_reads_;
};

/// Rows equal bit for bit: sources, labels, every measure, mean and std.
void expect_same_rows(const VarianceStudyResult& a,
                      const VarianceStudyResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const SourceVariance& x = a.rows[i];
    const SourceVariance& y = b.rows[i];
    EXPECT_EQ(x.source, y.source) << x.label;
    EXPECT_EQ(x.label, y.label);
    ASSERT_EQ(x.measures.size(), y.measures.size()) << x.label;
    for (std::size_t j = 0; j < x.measures.size(); ++j) {
      EXPECT_EQ(bits(x.measures[j]), bits(y.measures[j])) << x.label << j;
    }
    EXPECT_EQ(bits(x.mean), bits(y.mean)) << x.label;
    EXPECT_EQ(bits(x.stddev), bits(y.stddev)) << x.label;
  }
}

TEST(VarianceStudyFitOnce, UnreadSourcesGiveTheRowsOfEveryRepetition) {
  // No dropout, no jitter, no numerical noise: augment, dropout and
  // numerical noise are unread, so their probes repeat the base fit.
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.0, 0.0, 0.0);
  const OutOfBootstrapSplitter splitter{120, 60};
  const ForwardingPipeline every_fit{pipeline, /*forward_reads=*/false};
  VarianceStudyConfig cfg;
  cfg.repetitions = 4;
  cfg.hpo_algorithms = {"random_search"};
  cfg.hpo_repetitions = 2;
  cfg.hpo_budget = 2;
  for (const std::size_t threads : {1u, 4u}) {
    cfg.exec = exec::ExecContext{threads};
    rngx::Rng master_a{9};
    rngx::Rng master_b{9};
    const auto once =
        run_variance_study(pipeline, pool, splitter, cfg, master_a);
    const auto every =
        run_variance_study(every_fit, pool, splitter, cfg, master_b);
    expect_same_rows(once, every);
    // The skipped probes took their master draws: the streams line up.
    EXPECT_EQ(master_a.next_u64(), master_b.next_u64()) << threads;
  }
}

TEST(VarianceStudyFitOnce, EveryShardIncludingAnEmptySliceMatches) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.0, 0.0, 0.0);
  const OutOfBootstrapSplitter splitter{120, 60};
  const ForwardingPipeline every_fit{pipeline, /*forward_reads=*/false};
  VarianceStudyConfig cfg;
  cfg.repetitions = 2;  // shard 2/3's slice is empty
  cfg.hpo_algorithms = {"random_search"};
  cfg.hpo_repetitions = 2;
  cfg.hpo_budget = 2;
  rngx::Rng whole_master{10};
  const auto whole =
      run_variance_study(pipeline, pool, splitter, cfg, whole_master);
  std::vector<std::vector<double>> merged(whole.rows.size());
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard_index = i;
    cfg.shard_count = 3;
    rngx::Rng master_a{10};
    rngx::Rng master_b{10};
    const auto once =
        run_variance_study(pipeline, pool, splitter, cfg, master_a);
    const auto every =
        run_variance_study(every_fit, pool, splitter, cfg, master_b);
    expect_same_rows(once, every);
    EXPECT_EQ(master_a.next_u64(), master_b.next_u64()) << i;
    ASSERT_EQ(once.rows.size(), whole.rows.size());
    for (std::size_t r = 0; r < once.rows.size(); ++r) {
      if (i == 2) {
        EXPECT_TRUE(once.rows[r].measures.empty()) << once.rows[r].label;
      }
      merged[r].insert(merged[r].end(), once.rows[r].measures.begin(),
                       once.rows[r].measures.end());
    }
  }
  for (std::size_t r = 0; r < whole.rows.size(); ++r) {
    EXPECT_EQ(merged[r], whole.rows[r].measures) << whole.rows[r].label;
  }
}

TEST(VarianceStudyFitOnce, UnreadProbesTrainOneFitBetweenThem) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.0, 0.0, 0.0);
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 5;
  const ForwardingPipeline every_fit{pipeline, /*forward_reads=*/false};
  const ForwardingPipeline forwarded{pipeline, /*forward_reads=*/true};
  rngx::Rng master_a{12};
  rngx::Rng master_b{12};
  (void)run_variance_study(every_fit, pool, splitter, cfg, master_a);
  (void)run_variance_study(forwarded, pool, splitter, cfg, master_b);
  // Six probes of R fits each, against three read probes of R fits plus
  // one base fit for augment, dropout and numerical noise together.
  EXPECT_EQ(every_fit.fits.load(), 6 * cfg.repetitions);
  EXPECT_EQ(forwarded.fits.load(), 3 * cfg.repetitions + 1);
}

TEST(VarianceStudyFitOnce, NumericalNoiseStillTrainsEveryRepetition) {
  const auto pool = study_pool();
  const auto pipeline = study_pipeline(0.0, 0.0, /*numerical=*/0.05);
  const OutOfBootstrapSplitter splitter{120, 60};
  VarianceStudyConfig cfg;
  cfg.repetitions = 5;
  const ForwardingPipeline forwarded{pipeline, /*forward_reads=*/true};
  rngx::Rng master{13};
  (void)run_variance_study(forwarded, pool, splitter, cfg, master);
  EXPECT_EQ(forwarded.fits.load(), 6 * cfg.repetitions);
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
