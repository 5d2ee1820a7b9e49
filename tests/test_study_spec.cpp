// StudySpec serialization: every kind round-trips losslessly through JSON,
// malformed specs are rejected with actionable messages, and --set
// overrides edit the raw document the way the CLI applies them.
#include "src/study/study_spec.h"

#include <gtest/gtest.h>

#include "src/study/study_kinds.h"
#include "src/study/study_runner.h"

namespace varbench::study {
namespace {

void expect_roundtrip(const StudySpec& spec) {
  const std::string text = spec.to_json_text();
  const StudySpec parsed = StudySpec::from_json_text(text);
  EXPECT_EQ(parsed, spec) << text;
  // Serialization is deterministic: parse→serialize is a fixed point.
  EXPECT_EQ(parsed.to_json_text(), text);
}

void expect_rejected(const std::string& text, const std::string& hint) {
  try {
    (void)StudySpec::from_json_text(text);
    FAIL() << "accepted malformed spec: " << text;
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(hint), std::string::npos)
        << "error '" << e.what() << "' does not mention '" << hint << "'";
  }
}

TEST(StudySpec, VarianceRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kVariance;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.5;
  spec.seed = 0xDEADBEEFCAFEF00DULL;  // full 64-bit seeds must survive
  spec.repetitions = 200;
  spec.threads = 8;
  spec.figure.hpo_algorithms = {"random_search", "bayes_opt"};
  spec.figure.hpo_repetitions = 20;
  spec.figure.hpo_budget = 100;
  spec.figure.include_numerical_noise = false;
  expect_roundtrip(spec);
}

TEST(StudySpec, CompareRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kCompare;
  spec.case_study = "glue_rte_bert";
  spec.scale = 1.0;
  spec.repetitions = 33;
  spec.figure.lr_mult = -0.5;  // negative values are legal spec data
  spec.figure.gamma = 0.8;
  spec.figure.num_resamples = 500;
  expect_roundtrip(spec);
}

TEST(StudySpec, HpoRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kHpo;
  spec.case_study = "mhc_mlp";
  spec.repetitions = 1;
  spec.figure.algo = "noisy_grid_search";
  spec.figure.budget = 64;
  expect_roundtrip(spec);
}

TEST(StudySpec, EstimatorRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kEstimator;
  spec.case_study = "glue_sst2_bert";
  spec.repetitions = 100;
  spec.figure.estimators = {"fix_all", "ideal"};
  spec.figure.hpo_algo = "grid_search";
  spec.figure.hpo_budget = 16;
  expect_roundtrip(spec);
}

TEST(StudySpec, DetectionRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kDetection;
  spec.case_study = "pascalvoc_fcn";
  spec.repetitions = 50;
  spec.figure.estimator = "ideal";
  spec.figure.k = 100;
  spec.figure.gamma = 0.65;
  spec.figure.resamples = 200;
  spec.figure.p_grid = {0.4, 0.5, 0.75, 0.99};
  expect_roundtrip(spec);
}

TEST(StudySpec, ShardedRoundTrip) {
  StudySpec spec;
  spec.kind = StudyKind::kCompare;
  spec.case_study = "cifar10_vgg11";
  spec.shard = ShardSpec{2, 5};
  expect_roundtrip(spec);
  // The unsharded normal form omits the shard block entirely.
  spec.shard = ShardSpec{};
  EXPECT_EQ(spec.to_json_text().find("shard"), std::string::npos);
  expect_roundtrip(spec);
}

TEST(StudySpec, RejectsMalformedSpecs) {
  expect_rejected("[]", "object");
  expect_rejected(R"({"case_study":"x"})", "kind");
  expect_rejected(R"({"kind":"frobnicate","case_study":"x"})", "variance");
  expect_rejected(R"({"kind":"variance"})", "case_study");
  expect_rejected(R"({"kind":"variance","case_study":""})", "case_study");
  expect_rejected(R"({"kind":"variance","case_study":"x","scale":0.0})",
                  "scale");
  expect_rejected(R"({"kind":"variance","case_study":"x","scale":1.5})",
                  "scale");
  expect_rejected(R"({"kind":"variance","case_study":"x","repetitions":0})",
                  "repetitions");
  expect_rejected(R"({"kind":"variance","case_study":"x","seed":-1})",
                  "negative");
  expect_rejected(
      R"({"kind":"variance","case_study":"x","shard":{"index":2,"count":2}})",
      "shard");
  expect_rejected(
      R"({"kind":"variance","case_study":"x","shard":{"index":0}})", "count");
  expect_rejected(R"({"kind":"variance","case_study":"x","typo":1})", "typo");
  expect_rejected(
      R"({"kind":"compare","case_study":"x","params":{"budget":9}})",
      "budget");
  expect_rejected(
      R"({"kind":"compare","case_study":"x","params":{"gamma":"high"}})",
      "gamma");
  expect_rejected(R"({"kind":"variance","case_study":"x","schema":"v999"})",
                  "schema");
}

// A repeated entry would key the same streams twice and duplicate rows:
// every list param rejects one, naming the key and the value, when the
// spec is parsed and when run_study validates a spec built in C++.
TEST(StudySpec, ListParamsRejectRepeatedEntries) {
  struct Case {
    std::string text;
    std::string message;
  };
  const Case cases[] = {
      {R"({"kind":"fig02_binomial_model",
           "params":{"tasks":["mhc_mlp","glue_rte_bert","mhc_mlp"]}})",
       "'params.tasks' lists \"mhc_mlp\" more than once"},
      {R"({"kind":"estimator","case_study":"mhc_mlp",
           "params":{"estimators":["ideal","ideal"]}})",
       "'params.estimators' lists \"ideal\" more than once"},
      {R"({"kind":"figF2_hpo_curves",
           "params":{"hpo_algorithms":["random_search","random_search"]}})",
       "'params.hpo_algorithms' lists \"random_search\" more than once"},
      {R"({"kind":"fig05_estimator_stderr","params":{"k_grid":[1,5,1]}})",
       "'params.k_grid' lists 1 more than once"},
      {R"({"kind":"fig04_estimator_cost","params":{"t_grid":[50,50]}})",
       "'params.t_grid' lists 50 more than once"},
      {R"({"kind":"figC1_sample_size","params":{"gamma_grid":[0.6,0.6]}})",
       "'params.gamma_grid' lists 0.6 more than once"},
      {R"({"kind":"figC1_sample_size","params":{"beta_grid":[0.05,0.05]}})",
       "'params.beta_grid' lists 0.05 more than once"},
      {R"({"kind":"detection","case_study":"mhc_mlp",
           "params":{"p_grid":[0.5,0.9,0.5]}})",
       "'params.p_grid' lists 0.5 more than once"},
      {R"({"kind":"ablation_pairing","params":{"edges":[0.01,0.02,0.01]}})",
       "'params.edges' lists 0.01 more than once"},
  };
  for (const Case& c : cases) expect_rejected(c.text, c.message);

  StudySpec spec = default_spec(StudyKind::kFig02Binomial);
  spec.figure.tasks = {"mhc_mlp", "mhc_mlp"};
  try {
    (void)run_study(spec);
    FAIL() << "run_study accepted a repeated task";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "'params.tasks' lists \"mhc_mlp\" more than once"),
              std::string::npos)
        << e.what();
  }
}

TEST(StudySpec, UnknownKeyErrorListsExpectedKeys) {
  try {
    (void)StudySpec::from_json_text(
        R"({"kind":"hpo","case_study":"x","params":{"algorithm":"rs"}})");
    FAIL() << "expected rejection";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'algo'"), std::string::npos) << what;
    EXPECT_NE(what.find("'budget'"), std::string::npos) << what;
  }
}

// Type errors name the offending key and show its value, one case per
// typed reader of src/io/spec_reader.h.
TEST(SpecReader, ObjectReaderNamesWhatItReads) {
  expect_rejected(R"({"kind":"variance","case_study":"x","params":[]})",
                  "spec: 'params' must be an object, got []");
  expect_rejected(R"({"kind":"variance","case_study":"x","shard":3})",
                  "spec: 'shard' must be an object, got 3");
}

TEST(SpecReader, ReadBoolNamesTheKey) {
  expect_rejected(R"({"kind":"variance","case_study":"x",
                      "params":{"include_numerical_noise":1}})",
                  "'include_numerical_noise' must be true or false, got 1");
}

TEST(SpecReader, ReadStringArrayNamesTheKey) {
  expect_rejected(
      R"({"kind":"fig02_binomial_model","params":{"tasks":"mhc_mlp"}})",
      "'tasks' must be an array, got \"mhc_mlp\"");
  expect_rejected(
      R"({"kind":"fig02_binomial_model","params":{"tasks":["mhc_mlp",3]}})",
      "'tasks' must be a string, got 3");
}

TEST(SpecReader, ReadSizeArrayNamesTheKey) {
  // `varbench run --set params.k_grid=5` hands the parser the number 5.
  io::Json doc = io::Json::parse(R"({"kind":"fig04_estimator_cost"})");
  apply_override(doc, "params.k_grid=5");
  expect_rejected(doc.dump(), "'k_grid' must be an array, got 5");
  expect_rejected(
      R"({"kind":"fig04_estimator_cost","params":{"t_grid":[50,-1]}})",
      "'t_grid' must be a non-negative integer, got -1");
}

TEST(SpecReader, ReadDoubleArrayNamesTheKey) {
  expect_rejected(
      R"({"kind":"detection","case_study":"x","params":{"p_grid":0.5}})",
      "'p_grid' must be an array, got 0.5");
  expect_rejected(
      R"({"kind":"figC1_sample_size","params":{"gamma_grid":[0.7,"x"]}})",
      "'gamma_grid' must be a number, got \"x\"");
}

TEST(ShardSpecParse, AcceptsAndRejects) {
  EXPECT_EQ(ShardSpec::parse("0/2"), (ShardSpec{0, 2}));
  EXPECT_EQ(ShardSpec::parse("7/8"), (ShardSpec{7, 8}));
  EXPECT_THROW((void)ShardSpec::parse("2/2"), io::JsonError);
  EXPECT_THROW((void)ShardSpec::parse("0/0"), io::JsonError);
  EXPECT_THROW((void)ShardSpec::parse("1"), io::JsonError);
  EXPECT_THROW((void)ShardSpec::parse("a/b"), io::JsonError);
  EXPECT_THROW((void)ShardSpec::parse("-1/2"), io::JsonError);
}

TEST(ApplyOverride, EditsRawDocuments) {
  io::Json doc = io::Json::parse(
      R"({"kind":"compare","case_study":"a","params":{"gamma":0.75}})");
  apply_override(doc, "seed=99");
  apply_override(doc, "params.gamma=0.9");
  apply_override(doc, "case_study=mhc_mlp");
  apply_override(doc, "params.num_resamples=250");
  EXPECT_EQ(doc.at("seed").as_uint64(), 99u);
  EXPECT_DOUBLE_EQ(doc.at("params").at("gamma").as_double(), 0.9);
  EXPECT_EQ(doc.at("case_study").as_string(), "mhc_mlp");
  const StudySpec spec = StudySpec::from_json(doc);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_DOUBLE_EQ(spec.figure.gamma, 0.9);
  EXPECT_EQ(spec.figure.num_resamples, 250u);
  EXPECT_THROW(apply_override(doc, "no-equals-sign"), io::JsonError);
}

}  // namespace
}  // namespace varbench::study
