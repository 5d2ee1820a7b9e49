#include "src/casestudies/registry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "src/casestudies/calibration.h"
#include "src/core/pipeline.h"
#include "src/ml/synthetic.h"
#include "src/ml/trainer.h"

namespace varbench::casestudies {
namespace {

TEST(Registry, AllIdsConstruct) {
  for (const auto& id : case_study_ids()) {
    const auto cs = make_case_study(id, 0.1);
    EXPECT_EQ(cs.id, id);
    EXPECT_FALSE(cs.pool->empty());
    EXPECT_NE(cs.splitter, nullptr);
    EXPECT_NE(cs.pipeline, nullptr);
    EXPECT_GT(cs.paper_test_size, 0u);
  }
}

TEST(Registry, FiveCaseStudies) {
  EXPECT_EQ(case_study_ids().size(), 5u);
}

TEST(Registry, UnknownIdThrows) {
  EXPECT_THROW((void)make_case_study("nope", 1.0), std::invalid_argument);
}

TEST(Registry, BadScaleThrows) {
  EXPECT_THROW((void)make_case_study("mhc_mlp", 0.0), std::invalid_argument);
  EXPECT_THROW((void)make_case_study("mhc_mlp", 1.5), std::invalid_argument);
}

TEST(Registry, PoolIsDeterministic) {
  const auto a = make_case_study("cifar10_vgg11", 0.1);
  const auto b = make_case_study("cifar10_vgg11", 0.1);
  EXPECT_EQ(a.pool->y, b.pool->y);
  EXPECT_EQ(a.pool->x, b.pool->x);
}

TEST(Registry, ScaleShrinksPool) {
  const auto small = make_case_study("cifar10_vgg11", 0.1);
  const auto large = make_case_study("cifar10_vgg11", 1.0);
  EXPECT_LT(small.pool->size(), large.pool->size());
}

TEST(Registry, DefaultsLieInSearchSpace) {
  for (const auto& id : case_study_ids()) {
    const auto cs = make_case_study(id, 0.1);
    EXPECT_TRUE(
        cs.pipeline->search_space().contains(cs.pipeline->default_params()))
        << id;
  }
}

// Every case study must run end-to-end with default hyperparameters and
// produce a sane metric value.
class CaseStudyEndToEnd : public ::testing::TestWithParam<std::string> {};

TEST_P(CaseStudyEndToEnd, DefaultRunInRange) {
  const auto cs = make_case_study(GetParam(), 0.15);
  const rngx::VariationSeeds seeds;
  const core::HpoRunConfig cfg;  // defaults
  const double perf = core::run_pipeline_once(*cs.pipeline, *cs.pool,
                                              *cs.splitter, cfg, seeds);
  EXPECT_GT(perf, 0.0) << GetParam();
  EXPECT_LE(perf, 1.0) << GetParam();
}

TEST_P(CaseStudyEndToEnd, BetterThanChance) {
  const auto cs = make_case_study(GetParam(), 0.15);
  const rngx::VariationSeeds seeds;
  const core::HpoRunConfig cfg;
  const double perf = core::run_pipeline_once(*cs.pipeline, *cs.pool,
                                              *cs.splitter, cfg, seeds);
  // Chance levels: accuracy 1/C, mIoU low, AUC 0.5.
  const double chance =
      cs.pipeline->metric() == ml::Metric::kAuc
          ? 0.5
          : 1.0 / static_cast<double>(std::max<std::size_t>(
                      cs.pool->num_classes, 2));
  EXPECT_GT(perf, chance + 0.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllCaseStudies, CaseStudyEndToEnd,
                         ::testing::ValuesIn(case_study_ids()));

TEST(MlpPipelineSpecifics, ResolveConfigAppliesParams) {
  const auto cs = make_case_study("cifar10_vgg11", 0.1);
  const auto cfg = cs.pipeline->resolve_config({{"learning_rate", 0.05},
                                                {"weight_decay", 0.01},
                                                {"momentum", 0.8},
                                                {"lr_gamma", 0.98}});
  EXPECT_DOUBLE_EQ(cfg.opt.learning_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.opt.weight_decay, 0.01);
  EXPECT_DOUBLE_EQ(cfg.opt.momentum, 0.8);
  EXPECT_DOUBLE_EQ(cfg.opt.lr_gamma, 0.98);
}

TEST(MlpPipelineSpecifics, ResolveConfigHiddenAndUnknown) {
  const auto cs = make_case_study("mhc_mlp", 0.1);
  const auto cfg = cs.pipeline->resolve_config(
      {{"hidden", 37.0}, {"weight_decay", 0.1}});
  ASSERT_EQ(cfg.model.hidden.size(), 1u);
  EXPECT_EQ(cfg.model.hidden[0], 37u);
  EXPECT_THROW((void)cs.pipeline->resolve_config({{"bogus", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)cs.pipeline->resolve_config({{"learning_rate", -1.0}}),
               std::invalid_argument);
}

// --------------------------------------------- reads() against the trainer

template <typename T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_bits(const ml::Mlp& a, const ml::Mlp& b) {
  if (a.weights().size() != b.weights().size() ||
      a.biases().size() != b.biases().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.weights().size(); ++i) {
    if (!same_bits(a.weights()[i].data(), b.weights()[i].data())) return false;
  }
  for (std::size_t i = 0; i < a.biases().size(); ++i) {
    if (!same_bits<double>(a.biases()[i], b.biases()[i])) return false;
  }
  return true;
}

/// The fit a measurement under λ and `seeds` trains (as measure_with_params
/// does: the splitter's train set under the data-split seed), run by
/// ml::Trainer, which adds no numerical noise, unlike train_mlp.
ml::Mlp measured_fit(const MlpPipeline& pipeline, const ml::Dataset& pool,
                     const core::Splitter& splitter,
                     const hpo::ParamPoint& lambda,
                     const rngx::VariationSeeds& seeds) {
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const auto [train, test] =
      core::materialize(pool, splitter.split(pool, split_rng));
  ml::Trainer trainer{train, pipeline.resolve_config(lambda), seeds};
  trainer.run_to_completion();
  return std::move(trainer).release_model();
}

/// Whether the claim `reads(source)` matches the trainer at the defaults:
/// for each source in kLearningSources plus kHpo, the fit under the base
/// seeds and the fit with only that source re-drawn must have bit-identical
/// weights and biases exactly when the claim says the source is not read.
template <typename Reads>
testing::AssertionResult reads_matches_trainer(const MlpPipeline& pipeline,
                                               const ml::Dataset& pool,
                                               const core::Splitter& splitter,
                                               const Reads& reads) {
  const hpo::ParamPoint lambda = pipeline.default_params();
  const rngx::VariationSeeds base;
  const ml::Mlp base_fit = measured_fit(pipeline, pool, splitter, lambda, base);
  std::vector<rngx::VariationSource> sources(rngx::kLearningSources.begin(),
                                             rngx::kLearningSources.end());
  sources.push_back(rngx::VariationSource::kHpo);
  rngx::Rng master{17};
  for (const rngx::VariationSource source : sources) {
    const ml::Mlp fit = measured_fit(pipeline, pool, splitter, lambda,
                                     base.with_randomized(source, master));
    const bool identical = same_bits(base_fit, fit);
    if (identical == reads(source)) {
      return testing::AssertionFailure()
             << pipeline.name() << ": " << rngx::to_string(source)
             << (identical ? " is claimed read, but re-drawing it trains the "
                             "same bits"
                           : " is claimed unread, but re-drawing it moves "
                             "the fit");
    }
  }
  return testing::AssertionSuccess();
}

MlpPipeline dropout_jitter_pipeline() {
  // The small pipeline of test_variance_study.cpp, dropout and jitter on.
  MlpPipelineSpec spec;
  spec.name = "study";
  spec.base.model.hidden = {6};
  spec.base.model.dropout = 0.2;
  spec.base.augment.jitter_std = 0.1;
  spec.base.epochs = 4;
  spec.base.batch_size = 32;
  spec.space.add({"learning_rate", 0.001, 0.5, hpo::ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.1}};
  return MlpPipeline{std::move(spec)};
}

ml::Dataset dropout_jitter_pool() {
  ml::GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 220;
  cfg.class_sep = 1.3;
  cfg.label_noise = 0.1;
  rngx::Rng rng{1};
  return ml::make_gaussian_mixture(cfg, rng);
}

TEST(MlpPipelineReads, MatchesTheTrainerForEveryCaseStudy) {
  for (const auto& id : case_study_ids()) {
    const auto cs = make_case_study(id, 0.1);
    const hpo::ParamPoint lambda = cs.pipeline->default_params();
    EXPECT_TRUE(reads_matches_trainer(
        *cs.pipeline, *cs.pool, *cs.splitter,
        [&](rngx::VariationSource s) { return cs.pipeline->reads(s, lambda); }));
  }
}

TEST(MlpPipelineReads, MatchesTheTrainerWithDropoutAndJitter) {
  const MlpPipeline pipeline = dropout_jitter_pipeline();
  const ml::Dataset pool = dropout_jitter_pool();
  const core::OutOfBootstrapSplitter splitter{120, 60};
  const hpo::ParamPoint lambda = pipeline.default_params();
  EXPECT_TRUE(reads_matches_trainer(
      pipeline, pool, splitter,
      [&](rngx::VariationSource s) { return pipeline.reads(s, lambda); }));
}

TEST(MlpPipelineReads, ClaimingDropoutUnreadWhileOnFailsTheCheck) {
  const MlpPipeline pipeline = dropout_jitter_pipeline();
  const ml::Dataset pool = dropout_jitter_pool();
  const core::OutOfBootstrapSplitter splitter{120, 60};
  const hpo::ParamPoint lambda = pipeline.default_params();
  EXPECT_FALSE(reads_matches_trainer(
      pipeline, pool, splitter, [&](rngx::VariationSource s) {
        return s != rngx::VariationSource::kDropout && pipeline.reads(s, lambda);
      }));
}

TEST(MlpPipelineReads, FollowsTheResolvedConfig) {
  using rngx::VariationSource;
  const auto mhc = make_case_study("mhc_mlp", 0.1);
  const hpo::ParamPoint lambda = mhc.pipeline->default_params();
  EXPECT_FALSE(mhc.pipeline->reads(VariationSource::kDataAugment, lambda));
  EXPECT_FALSE(mhc.pipeline->reads(VariationSource::kDropout, lambda));
  EXPECT_FALSE(mhc.pipeline->reads(VariationSource::kNumerical, lambda));
  EXPECT_FALSE(mhc.pipeline->reads(VariationSource::kHpo, lambda));
  for (const VariationSource s :
       {VariationSource::kDataSplit, VariationSource::kDataOrder,
        VariationSource::kWeightInit}) {
    EXPECT_TRUE(mhc.pipeline->reads(s, lambda)) << rngx::to_string(s);
  }
  // A λ that turns dropout on makes its seed read.
  hpo::ParamPoint with_dropout = lambda;
  with_dropout["dropout"] = 0.3;
  EXPECT_TRUE(mhc.pipeline->reads(VariationSource::kDropout, with_dropout));
  const auto voc = make_case_study("pascalvoc_fcn", 0.1);
  EXPECT_TRUE(voc.pipeline->reads(VariationSource::kNumerical,
                                  voc.pipeline->default_params()));
  const auto cifar = make_case_study("cifar10_vgg11", 0.1);
  EXPECT_TRUE(cifar.pipeline->reads(VariationSource::kDataAugment,
                                    cifar.pipeline->default_params()));
  const auto rte = make_case_study("glue_rte_bert", 0.1);
  EXPECT_TRUE(rte.pipeline->reads(VariationSource::kDropout,
                                  rte.pipeline->default_params()));
}

TEST(Calibration, AllRegistryIdsCovered) {
  for (const auto& id : case_study_ids()) {
    EXPECT_NO_THROW((void)calibration_for(id));
  }
  EXPECT_THROW((void)calibration_for("nope"), std::invalid_argument);
}

TEST(Calibration, RhoOrderingMatchesPaper) {
  // Fig. 5/H.4: randomizing more sources decorrelates measurements, so
  // ρ_all <= ρ_data <= ρ_init on every task.
  for (const auto& c : paper_calibrations()) {
    EXPECT_LE(c.rho_all, c.rho_data) << c.id;
    EXPECT_LE(c.rho_data, c.rho_init) << c.id;
    EXPECT_GT(c.sigma_ideal, 0.0) << c.id;
  }
}

TEST(Calibration, ProfileVariancesDecompose) {
  const auto& c = calibration_for("glue_rte_bert");
  const auto p = c.profile(core::RandomizeSubset::kAll);
  // σ_bias² + σ_within² = σ_ideal² by construction.
  EXPECT_NEAR(p.sigma_bias * p.sigma_bias + p.sigma_within * p.sigma_within,
              c.sigma_ideal * c.sigma_ideal, 1e-12);
  const auto ideal = c.ideal_profile();
  EXPECT_DOUBLE_EQ(ideal.sigma_bias, 0.0);
}

TEST(Sota, SeriesAreMonotoneAndPlausible) {
  for (const auto& s : sota_series()) {
    ASSERT_GE(s.points.size(), 2u) << s.task;
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      EXPECT_GE(s.points[i].accuracy, s.points[i - 1].accuracy) << s.task;
      EXPECT_GE(s.points[i].year, s.points[i - 1].year) << s.task;
    }
    EXPECT_GT(s.benchmark_sigma, 0.0);
    EXPECT_GT(s.points.back().accuracy, s.points.front().accuracy) << s.task;
  }
}

}  // namespace
}  // namespace varbench::casestudies
