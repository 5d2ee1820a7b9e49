// The kind-table contract: every study kind's default spec serializes →
// parses → re-serializes to identical JSON (so a new kind cannot ship
// without strict round-trip), a bare {"kind": K} parses to default_spec(K),
// the spec text of every kind's defaults is pinned, `varbench list` names
// every kind, and figure specs keep the strict unknown-key rejection of the
// original kinds.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/rngx/rng.h"
#include "src/study/study_kinds.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

void expect_roundtrip(const StudySpec& spec) {
  const std::string text = spec.to_json_text();
  const StudySpec parsed = StudySpec::from_json_text(text);
  EXPECT_EQ(parsed, spec) << text;
  // Serialization is deterministic: parse→serialize is a fixed point.
  EXPECT_EQ(parsed.to_json_text(), text);
}

/// default_spec(kind), with the case study a kind without a default one
/// needs in every spec.
StudySpec runnable_default(StudyKind kind) {
  StudySpec spec = default_spec(kind);
  if (spec.case_study.empty()) spec.case_study = "mhc_mlp";
  return spec;
}

TEST(KindTable, EveryKindRoundTripsStrictly) {
  ASSERT_EQ(study_kinds().size(), 22u);
  for (const StudyKindDef& def : study_kinds()) {
    expect_roundtrip(runnable_default(def.kind));
  }
}

TEST(KindTable, BareKindParsesToItsDefaultSpec) {
  for (const StudyKindDef& def : study_kinds()) {
    io::Json doc = io::Json::object();
    doc.set("kind", def.name);
    if (default_spec(def.kind).case_study.empty()) {
      EXPECT_THROW((void)StudySpec::from_json(doc), io::JsonError) << def.name;
      doc.set("case_study", "mhc_mlp");
    }
    EXPECT_EQ(StudySpec::from_json(doc), runnable_default(def.kind))
        << def.name;
  }
}

TEST(KindTable, SpecTextDigestsArePinned) {
  // 64-bit FNV-1a of to_json_text(), recorded on the commit before the
  // per-kind params blocks folded into one pool and the kind table: of
  // each kind's default spec, and for the original five kinds also of a
  // hand-built spec. Every artifact embeds its spec text, so these pin
  // each kind's key order and defaults.
  struct Pin {
    std::string_view kind;
    std::uint64_t defaults;
    std::uint64_t hand_built;  // 0: not a hand-built kind
  };
  const Pin pins[] = {
      {"variance", 0x3515bfbf2f3bb50cULL, 0x96ea3a9c61642a4cULL},
      {"compare", 0x9f54a76d9c64b2a6ULL, 0xbccab06c52f7294eULL},
      {"hpo", 0x8dc214c9572c104dULL, 0x2a01404afb36bf82ULL},
      {"estimator", 0xe2fe7621fe1f2a1bULL, 0x93bba49633e2d7a9ULL},
      {"detection", 0xb722cf9585ff5393ULL, 0x43565015707b9c33ULL},
      {"fig01_variance_sources", 0x05a3f2ef956eca6cULL, 0},
      {"fig02_binomial_model", 0xda3e337a030d3fe3ULL, 0},
      {"fig03_published_improvements", 0x20a01becd0bec9edULL, 0},
      {"fig04_estimator_cost", 0xa20987bdbaae5220ULL, 0},
      {"fig05_estimator_stderr", 0x889ac67423b581b2ULL, 0},
      {"fig06_detection_rates", 0x5ae6ae9d2b8f49d4ULL, 0},
      {"figC1_sample_size", 0x96421b474eb62f95ULL, 0},
      {"figF2_hpo_curves", 0x3fd70b0429c97f8dULL, 0},
      {"figG3_normality", 0x48e1b6499e1fcbe8ULL, 0},
      {"figH5_mse_decomposition", 0xca7f0b78efee79deULL, 0},
      {"figI6_robustness", 0xa7d679d4a3c0b2aaULL, 0},
      {"ablation_pairing", 0xc35282f92d570102ULL, 0},
      {"ablation_splitters", 0x81b78f9b514c8d46ULL, 0},
      {"multi_contestants", 0xcd1119f91deca84dULL, 0},
      {"multi_dataset", 0x3ce110c6016a50cbULL, 0},
      {"table8_mhc_models", 0x3f2bffc6d18ddbc2ULL, 0},
      {"tableD_search_spaces", 0xc9c4300d9858a9b6ULL, 0},
  };
  ASSERT_EQ(std::size(pins), study_kinds().size());
  for (const Pin& pin : pins) {
    const StudyKind kind = study_kind_from_string(pin.kind);
    const std::uint64_t got = rngx::hash_tag(default_spec(kind).to_json_text());
    EXPECT_EQ(got, pin.defaults)
        << pin.kind << " default spec: got 0x" << std::hex << got;
    if (pin.hand_built == 0) continue;
    StudySpec s;
    s.kind = kind;
    s.case_study = "mhc_mlp";
    const std::uint64_t hand = rngx::hash_tag(s.to_json_text());
    EXPECT_EQ(hand, pin.hand_built)
        << pin.kind << " hand-built spec: got 0x" << std::hex << hand;
  }
}

TEST(KindTable, TweakedSpecsRoundTrip) {
  StudySpec fig06 = default_spec(
      StudyKind::kFig06DetectionRates);
  fig06.repetitions = 7;
  fig06.seed = 0xDEADBEEFCAFEF00DULL;
  fig06.figure.tasks = {"cifar10_vgg11", "mhc_mlp"};
  fig06.figure.k = 13;
  fig06.figure.p_grid = {0.4, 0.75, 0.99};
  fig06.shard = ShardSpec{1, 4};
  expect_roundtrip(fig06);

  StudySpec figC1 = default_spec(StudyKind::kFigC1SampleSize);
  figC1.figure.gamma_grid = {0.7, 0.8};
  figC1.figure.beta_grid = {0.5};
  expect_roundtrip(figC1);

  StudySpec pairing = default_spec(
      StudyKind::kAblationPairing);
  pairing.figure.edges = {0.0, 0.1};
  pairing.figure.resamples = 33;
  expect_roundtrip(pairing);
}

TEST(KindTable, EveryKindHasAUniqueName) {
  const auto kinds = registered_study_kinds();
  ASSERT_EQ(kinds.size(), 22u);  // the original five + the figure kinds
  for (const auto& info : kinds) {
    // Name round-trip: the spec string resolves back to the same kind.
    EXPECT_EQ(study_kind_from_string(info.name), info.kind);
    EXPECT_EQ(to_string(info.kind), info.name);
  }
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      EXPECT_NE(kinds[i].name, kinds[j].name);
    }
  }
}

TEST(KindTable, ListTextNamesEveryKindAndItsParams) {
  const std::string text = list_study_kinds_text();
  for (const auto& info : registered_study_kinds()) {
    EXPECT_NE(text.find(info.name), std::string::npos) << info.name;
    for (const auto& key : info.param_keys) {
      EXPECT_NE(text.find(key), std::string::npos)
          << info.name << " params key " << key;
    }
  }
  EXPECT_NE(text.find("not shardable"), std::string::npos);  // hpo
}

TEST(FigureSpec, CaseStudyAndRepetitionsDefaultPerKind) {
  const auto spec =
      StudySpec::from_json_text(R"({"kind": "figC1_sample_size"})");
  EXPECT_EQ(spec.case_study, "all");
  EXPECT_EQ(spec.repetitions, 1u);
  const auto i6 = StudySpec::from_json_text(R"({"kind": "figI6_robustness"})");
  EXPECT_EQ(i6.case_study, "cifar10_vgg11");
  // The original kinds still require case_study explicitly.
  EXPECT_THROW((void)StudySpec::from_json_text(R"({"kind": "variance"})"),
               io::JsonError);
}

TEST(FigureSpec, UnknownParamsKeysAreRejectedPerKind) {
  // 'budget' belongs to figF2, not fig01 — strictness is per kind even
  // though every kind draws from the one StudyParams pool.
  try {
    (void)StudySpec::from_json_text(
        R"({"kind": "fig01_variance_sources", "params": {"budget": 9}})");
    FAIL() << "accepted an undeclared figure params key";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
    EXPECT_NE(what.find("hpo_algorithms"), std::string::npos) << what;
  }
  EXPECT_THROW((void)StudySpec::from_json_text(
                   R"({"kind": "figC1_sample_size", "params": {"tasks": []}})"),
               io::JsonError);
}

TEST(FigureSpec, UnknownKindErrorListsFigureKinds) {
  try {
    (void)StudySpec::from_json_text(R"({"kind": "fig99", "case_study": "x"})");
    FAIL() << "accepted unknown kind";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fig06_detection_rates"), std::string::npos) << what;
    EXPECT_NE(what.find("variance"), std::string::npos) << what;
  }
}

TEST(FigureSpec, ValidateStudySpecCatchesWorkerTimeFailures) {
  // The checks `varbench campaign --plan-only` runs so a plan-clean
  // campaign cannot fail them at worker time.
  StudySpec typo;
  typo.kind = StudyKind::kVariance;
  typo.case_study = "cifar10_vgg19";  // misspelled registry id
  EXPECT_THROW(validate_study_spec(typo), std::invalid_argument);

  StudySpec analytic = default_spec(StudyKind::kFig03Sota);
  analytic.repetitions = 5;
  EXPECT_THROW(validate_study_spec(analytic), std::invalid_argument);

  StudySpec all = default_spec(StudyKind::kVariance);
  all.case_study = "all";  // only kinds that default case_study span tasks
  EXPECT_THROW(validate_study_spec(all), std::invalid_argument);

  EXPECT_NO_THROW(validate_study_spec(
      default_spec(StudyKind::kFig06DetectionRates)));
}

TEST(FigureSpec, AnalyticKindsRejectRepetitionOverrides) {
  StudySpec spec = default_spec(StudyKind::kFig03Sota);
  spec.repetitions = 2;
  EXPECT_THROW((void)run_study(spec), std::invalid_argument);
  spec.repetitions = 1;
  const ResultTable t = run_study(spec);  // the grid itself still runs
  EXPECT_GT(t.rows.size(), 0u);
}

TEST(FigureSpec, CaseStudyNarrowsKindsWithDefaultTaskSubsets) {
  // fig02 pre-populates a three-task default in figure.tasks; an explicit
  // case_study must still narrow the figure to that one task.
  StudySpec spec = default_spec(StudyKind::kFig02Binomial);
  ASSERT_EQ(spec.figure.tasks.size(), 3u);
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.repetitions = 2;
  const ResultTable t = run_study(spec);
  const std::size_t task_col = t.column_index("task");
  ASSERT_EQ(t.rows.size(), 2u);
  for (const auto& row : t.rows) {
    EXPECT_EQ(row[task_col].as_string(), "cifar10_vgg11");
  }
}

}  // namespace
}  // namespace varbench::study
