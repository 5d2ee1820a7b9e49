// The report subsystem contract: any complete ResultTable renders to the
// same bytes at every thread count and whether it was loaded whole or
// merged from shards; malformed artifacts are rejected with errors naming
// the file; ReportSpecs round-trip; the --compare path reproduces a known
// P(A>B).
#include <gtest/gtest.h>

#include <filesystem>

#include "src/io/json.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/report_spec.h"
#include "src/report/summary.h"
#include "src/stats/prob_outperform.h"

namespace varbench::report {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("varbench_report_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] std::string dir() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

void write(const std::string& path, const std::string& content) {
  io::write_file(path, content);
}

/// A small deterministic two-column table: measure rises with seq, flag
/// alternates groups "a"/"b".
study::ResultTable make_table(std::size_t rows) {
  study::ResultTable t;
  t.name = "test:table";
  t.seed = 7;
  t.columns = {"seq", "group", "measure", "other"};
  for (std::size_t i = 0; i < rows; ++i) {
    t.add_row({study::Cell{i}, study::Cell{i % 2 == 0 ? "a" : "b"},
               study::Cell{0.5 + 0.01 * static_cast<double>(i)},
               study::Cell{1.0 - 0.02 * static_cast<double>(i)}});
  }
  return t;
}

LoadedArtifact artifact_of(study::ResultTable t) {
  return LoadedArtifact{"<memory>", std::move(t)};
}

// ------------------------------------------------------------ ReportSpec

TEST(ReportSpec, RoundTripsThroughJson) {
  ReportSpec spec;
  spec.columns = {"measure"};
  spec.group_by = "group";
  spec.estimators = {"mean", "ci"};
  spec.ci_method = "percentile";
  spec.confidence = 0.9;
  spec.resamples = 250;
  spec.permutations = 500;
  spec.gamma = 0.8;
  spec.seed = 99;
  spec.format = "csv";
  const auto round = ReportSpec::from_json_text(spec.to_json_text());
  EXPECT_EQ(round, spec);
}

TEST(ReportSpec, EmptyObjectIsAllDefaults) {
  const auto spec = ReportSpec::from_json_text("{}");
  EXPECT_EQ(spec, ReportSpec{});
}

TEST(ReportSpec, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)ReportSpec::from_json_text(R"({"colums": ["x"]})"),
               io::JsonError);
  EXPECT_THROW((void)ReportSpec::from_json_text(R"({"ci_method": "magic"})"),
               io::JsonError);
  EXPECT_THROW((void)ReportSpec::from_json_text(R"({"confidence": 1.5})"),
               io::JsonError);
  EXPECT_THROW((void)ReportSpec::from_json_text(R"({"estimators": ["nope"]})"),
               io::JsonError);
  EXPECT_THROW((void)ReportSpec::from_json_text(R"({"format": "pdf"})"),
               io::JsonError);
  EXPECT_THROW(
      (void)ReportSpec::from_json_text(R"({"schema": "varbench.other.v9"})"),
      io::JsonError);
}

TEST(ReportSpec, TypeErrorsNameTheKey) {
  // What `varbench report <artifact> --set estimators=mean` hands the
  // parser: a string where the key takes an array.
  try {
    (void)ReportSpec::from_json_text(R"({"estimators": "mean"})");
    FAIL() << "accepted a string for 'estimators'";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "report spec: 'estimators' must be an array, got \"mean\""),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- artifact loading

TEST(LoadArtifact, RejectsMalformedInputsNamingTheFile) {
  TempDir tmp;
  const std::string missing = tmp.path("missing.json");
  EXPECT_THROW((void)load_artifact(missing), io::JsonError);

  const std::string garbage = tmp.path("garbage.json");
  write(garbage, "not json at all");
  try {
    (void)load_artifact(garbage);
    FAIL() << "garbage artifact must throw";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("garbage.json"), std::string::npos);
  }

  const std::string unknown = tmp.path("unknown.json");
  write(unknown, R"({"schema": "varbench.result_table.v99", "name": "x",
                     "meta": {"seed": 1, "shard": {"index": 0, "count": 1}},
                     "columns": ["seq"], "rows": [[0]]})");
  try {
    (void)load_artifact(unknown);
    FAIL() << "unknown schema must throw";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported schema"), std::string::npos);
    EXPECT_NE(what.find("unknown.json"), std::string::npos);
  }

  const std::string ragged = tmp.path("ragged.json");
  write(ragged, R"({"schema": "varbench.result_table.v1", "name": "x",
                    "meta": {"seed": 1, "shard": {"index": 0, "count": 1}},
                    "columns": ["seq", "v"], "rows": [[0, 1.0], [1]]})");
  EXPECT_THROW((void)load_artifact(ragged), io::JsonError);
}

TEST(LoadArtifactDir, MergesShardsBackToTheUnshardedTable) {
  TempDir tmp;
  const auto full = make_table(10);
  // Split by row parity into two shard tables.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    study::ResultTable part;
    part.name = full.name;
    part.seed = full.seed;
    part.columns = full.columns;
    part.shard = study::ShardSpec{shard, 2};
    for (std::size_t i = shard * 5; i < shard * 5 + 5; ++i) {
      part.add_row(full.rows[i].to_row());
    }
    write(tmp.path("shard" + std::to_string(shard) + ".json"),
          part.to_json_text());
  }
  const auto loaded = load_artifact_dir(tmp.dir());
  ASSERT_EQ(loaded.studies.size(), 1u);
  EXPECT_FALSE(loaded.provenance.has_value());
  EXPECT_EQ(loaded.studies[0].table.canonical_text(), full.canonical_text());
}

TEST(LoadArtifactDir, RejectsIncompleteShardSets) {
  TempDir tmp;
  auto part = make_table(4);
  part.shard = study::ShardSpec{0, 3};
  write(tmp.path("s0.json"), part.to_json_text());
  EXPECT_THROW((void)load_artifact_dir(tmp.dir()), io::JsonError);
}

TEST(LoadArtifactDir, EmptyDirectoryThrows) {
  TempDir tmp;
  EXPECT_THROW((void)load_artifact_dir(tmp.dir()), io::JsonError);
}

std::string campaign_manifest(const std::string& task_status) {
  return R"({"schema": "varbench.campaign.v1", "shards": 1, "max_retries": 2,
             "studies": [{"kind": "variance", "case_study": "demo"}],
             "tasks": [{"id": "s0-0of1", "study": 0, "shard": "0/1",
                        "status": ")" +
         task_status + R"(", "attempts": 1, "wall_time_ms": 12.5}]})";
}

TEST(LoadArtifactDir, ReadsCampaignWallTimeProvenance) {
  TempDir tmp;
  fs::create_directories(tmp.path("merged"));
  write(tmp.path("merged") + "/s0.json", make_table(4).to_json_text());
  write(tmp.path("campaign.json"), campaign_manifest("done"));
  const auto loaded = load_artifact_dir(tmp.dir());
  ASSERT_EQ(loaded.studies.size(), 1u);
  ASSERT_TRUE(loaded.provenance.has_value());
  EXPECT_EQ(loaded.provenance->tasks, 1u);
  EXPECT_EQ(loaded.provenance->tasks_with_wall_time, 1u);
  EXPECT_DOUBLE_EQ(loaded.provenance->total_wall_ms, 12.5);
  ASSERT_EQ(loaded.provenance->study_wall_ms.size(), 1u);
  EXPECT_EQ(loaded.provenance->study_wall_ms[0].first, "s0 variance:demo");
}

TEST(LoadArtifactDir, RefusesAnIncompleteCampaign) {
  // Only finished studies reach merged/ — a report over a half-failed
  // campaign must refuse rather than silently look complete.
  TempDir tmp;
  fs::create_directories(tmp.path("merged"));
  write(tmp.path("merged") + "/s0.json", make_table(4).to_json_text());
  write(tmp.path("campaign.json"), campaign_manifest("failed"));
  try {
    (void)load_artifact_dir(tmp.dir());
    FAIL() << "incomplete campaign must throw";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("incomplete"), std::string::npos);
    EXPECT_NE(what.find("s0-0of1"), std::string::npos);
  }
}

// ------------------------------------------------------------- summaries

TEST(Summarize, MatchesDescriptiveStatistics) {
  ReportSpec spec;
  spec.columns = {"measure"};
  spec.estimators = {"mean", "std", "min", "max", "median"};
  const auto report =
      summarize(exec::ExecContext::serial(), artifact_of(make_table(5)), spec);
  ASSERT_EQ(report.columns.size(), 1u);
  const ColumnSummary& s = report.columns[0];
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 0.52);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 0.54);
  EXPECT_DOUBLE_EQ(s.median, 0.52);
  EXPECT_FALSE(s.ci_mean.has_value());    // not selected
  EXPECT_FALSE(s.normality.has_value());  // not selected
}

TEST(Summarize, DefaultColumnsSkipIndexAndGroupColumns) {
  ReportSpec spec;
  spec.group_by = "group";
  const auto report = summarize(exec::ExecContext::serial(),
                                artifact_of(make_table(8)), spec);
  // Two groups × {measure, other}; "seq" and the group key are excluded.
  ASSERT_EQ(report.columns.size(), 4u);
  EXPECT_EQ(report.columns[0].group, "a");
  EXPECT_EQ(report.columns[0].column, "measure");
  EXPECT_EQ(report.columns[3].group, "b");
  EXPECT_EQ(report.columns[3].column, "other");
  // Exactly two groups: every column gets the P(A>B) comparison.
  ASSERT_EQ(report.comparisons.size(), 2u);
  EXPECT_TRUE(report.comparisons[0].paired);  // 4 rows in each group
}

TEST(Summarize, RejectsShardArtifactsAndBadColumns) {
  auto shard = make_table(4);
  shard.shard = study::ShardSpec{1, 4};
  ReportSpec spec;
  EXPECT_THROW((void)summarize(exec::ExecContext::serial(),
                               artifact_of(shard), spec),
               std::invalid_argument);
  ReportSpec missing;
  missing.columns = {"nope"};
  EXPECT_THROW((void)summarize(exec::ExecContext::serial(),
                               artifact_of(make_table(4)), missing),
               io::JsonError);
  ReportSpec non_numeric;
  non_numeric.columns = {"group"};
  EXPECT_THROW((void)summarize(exec::ExecContext::serial(),
                               artifact_of(make_table(4)), non_numeric),
               io::JsonError);
}

TEST(Summarize, NullCellsCountAsMissing) {
  study::ResultTable t;
  t.name = "test:nulls";
  t.seed = 3;
  t.columns = {"seq", "v"};
  t.add_row({study::Cell{std::size_t{0}}, study::Cell{1.0}});
  t.add_row({study::Cell{std::size_t{1}}, study::Cell{}});  // null
  t.add_row({study::Cell{std::size_t{2}}, study::Cell{3.0}});
  ReportSpec spec;
  spec.estimators = {"mean"};
  const auto report =
      summarize(exec::ExecContext::serial(), artifact_of(std::move(t)), spec);
  ASSERT_EQ(report.columns.size(), 1u);
  EXPECT_EQ(report.columns[0].n, 2u);
  EXPECT_EQ(report.columns[0].missing, 1u);
  EXPECT_DOUBLE_EQ(report.columns[0].mean, 2.0);
}

// ----------------------------------------------- determinism + identity

TEST(Summarize, RenderIsThreadCountInvariant) {
  ReportSpec spec;  // defaults: bca CIs + normality + P(A>B) via group_by
  spec.group_by = "group";
  const auto table = make_table(12);
  const auto serial =
      summarize(exec::ExecContext::serial(), artifact_of(table), spec);
  const auto parallel =
      summarize(exec::ExecContext{4}, artifact_of(table), spec);
  for (const Format f :
       {Format::kText, Format::kMarkdown, Format::kCsv, Format::kJson}) {
    EXPECT_EQ(render(serial, f), render(parallel, f))
        << "format " << to_string(f);
  }
}

TEST(Summarize, ShardedAndUnshardedInputsRenderIdentically) {
  const auto full = make_table(10);
  std::vector<study::ResultTable> shards;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    study::ResultTable part;
    part.name = full.name;
    part.seed = full.seed;
    part.columns = full.columns;
    part.shard = study::ShardSpec{shard, 2};
    for (std::size_t i = shard * 5; i < shard * 5 + 5; ++i) {
      part.add_row(full.rows[i].to_row());
    }
    shards.push_back(std::move(part));
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  ReportSpec spec;
  spec.group_by = "group";
  const auto from_full =
      summarize(exec::ExecContext::serial(), artifact_of(full), spec);
  const auto from_merged =
      summarize(exec::ExecContext{3}, artifact_of(merged), spec);
  EXPECT_EQ(render(from_full, Format::kJson),
            render(from_merged, Format::kJson));
}

// ----------------------------------------------------------- comparisons

TEST(SummarizeCompare, ReproducesKnownProbOutperform) {
  // A beats B in 5 of 8 paired rows with one tie: P(A>B) = 5.5/8.
  study::ResultTable ta;
  ta.name = "algo_a";
  ta.seed = 11;
  ta.columns = {"seq", "perf"};
  study::ResultTable tb;
  tb.name = "algo_b";
  tb.seed = 11;
  tb.columns = {"seq", "perf"};
  const double a_vals[] = {0.9, 0.8, 0.7, 0.9, 0.85, 0.6, 0.95, 0.5};
  const double b_vals[] = {0.8, 0.7, 0.6, 0.8, 0.95, 0.7, 0.90, 0.5};
  for (std::size_t i = 0; i < 8; ++i) {
    ta.add_row({study::Cell{i}, study::Cell{a_vals[i]}});
    tb.add_row({study::Cell{i}, study::Cell{b_vals[i]}});
  }
  const double expected = stats::probability_of_outperforming(
      std::vector<double>{std::begin(a_vals), std::end(a_vals)},
      std::vector<double>{std::begin(b_vals), std::end(b_vals)});
  EXPECT_DOUBLE_EQ(expected, 5.5 / 8.0);

  ReportSpec spec;
  const auto report = summarize_compare(exec::ExecContext::serial(),
                                        artifact_of(std::move(ta)),
                                        artifact_of(std::move(tb)), spec);
  EXPECT_EQ(report.title, "algo_a vs algo_b");
  ASSERT_EQ(report.comparisons.size(), 1u);
  const ComparisonSummary& c = report.comparisons[0];
  EXPECT_EQ(c.column, "perf");
  EXPECT_TRUE(c.paired);
  EXPECT_DOUBLE_EQ(c.p_a_greater_b, expected);
  ASSERT_TRUE(c.ci.has_value());
  EXPECT_GE(c.ci->lower, 0.0);
  EXPECT_LE(c.ci->upper, 1.0);
  EXPECT_FALSE(c.conclusion.empty());
  EXPECT_GT(c.permutation_p, 0.0);
  EXPECT_LE(c.permutation_p, 1.0);
}

TEST(SummarizeCompare, UnequalSizesFallBackToUnpaired) {
  study::ResultTable ta = make_table(6);
  study::ResultTable tb = make_table(4);
  ReportSpec spec;
  spec.columns = {"measure"};
  const auto report = summarize_compare(exec::ExecContext::serial(),
                                        artifact_of(std::move(ta)),
                                        artifact_of(std::move(tb)), spec);
  ASSERT_EQ(report.comparisons.size(), 1u);
  EXPECT_FALSE(report.comparisons[0].paired);
  EXPECT_FALSE(report.comparisons[0].ci.has_value());
  EXPECT_TRUE(report.comparisons[0].conclusion.empty());
}

// -------------------------------------------------------- golden renders

/// One tiny report with a fixed estimator subset, rendered into every
/// format: the exact bytes are part of the subsystem's contract (CI diffs
/// rendered reports across machines and thread counts).
class GoldenRender : public ::testing::Test {
 protected:
  Report report() {
    study::ResultTable t;
    t.name = "golden:demo";
    t.seed = 5;
    t.columns = {"seq", "v"};
    t.add_row({study::Cell{std::size_t{0}}, study::Cell{1.0}});
    t.add_row({study::Cell{std::size_t{1}}, study::Cell{2.0}});
    t.add_row({study::Cell{std::size_t{2}}, study::Cell{6.0}});
    ReportSpec spec;
    spec.estimators = {"mean", "std", "median"};
    return summarize(exec::ExecContext::serial(), artifact_of(std::move(t)),
                     spec);
  }
};

TEST_F(GoldenRender, Text) {
  EXPECT_EQ(render(report(), Format::kText),
            "report: golden:demo\n"
            "  seed 5, 3 rows; ci = bca @ 95% (1000 resamples); "
            "permutations = 10000; gamma = 0.75\n"
            "\n"
            " column  n  mean      std  median\n"
            " v       3     3  2.64575       2\n");
}

TEST_F(GoldenRender, Markdown) {
  EXPECT_EQ(render(report(), Format::kMarkdown),
            "# report: golden:demo\n"
            "\n"
            "- seed 5, 3 rows\n"
            "- ci = bca @ 95% (1000 resamples); permutations = 10000; "
            "gamma = 0.75\n"
            "\n"
            "## summaries\n"
            "\n"
            "| column | n | mean | std | median |\n"
            "| --- | ---: | ---: | ---: | ---: |\n"
            "| v | 3 | 3 | 2.64575 | 2 |\n");
}

TEST_F(GoldenRender, Csv) {
  EXPECT_EQ(render(report(), Format::kCsv),
            "column,n,mean,std,median\n"
            "v,3,3,2.64575,2\n");
}

TEST_F(GoldenRender, CsvQuotesCarriageReturnGroupKeys) {
  // A group key holding a CR (or a comma) is one quoted field: an RFC 4180
  // reader keeps the record whole. Groups keep first-appearance order.
  study::ResultTable t;
  t.name = "golden:cr";
  t.seed = 5;
  t.columns = {"seq", "group", "v"};
  for (std::size_t i = 0; i < 4; ++i) {
    t.add_row({study::Cell{i}, study::Cell{i % 2 == 0 ? "a\rb" : "c,d"},
               study::Cell{static_cast<double>(i)}});
  }
  ReportSpec spec;
  spec.group_by = "group";
  spec.estimators = {"mean"};
  spec.permutations = 10;
  spec.resamples = 10;
  const auto rep =
      summarize(exec::ExecContext::serial(), artifact_of(std::move(t)), spec);
  const std::string csv = render(rep, Format::kCsv);
  EXPECT_EQ(csv.substr(0, csv.find("\n\n")),
            "group,column,n,mean\n"
            "\"a\rb\",v,2,1\n"
            "\"c,d\",v,2,2");
}

TEST_F(GoldenRender, Json) {
  const io::Json doc = io::Json::parse(render(report(), Format::kJson));
  EXPECT_EQ(doc.at("schema").as_string(), "varbench.report.v1");
  EXPECT_EQ(doc.at("title").as_string(), "golden:demo");
  EXPECT_EQ(doc.at("rows").as_uint64(), 3u);
  const auto& summaries = doc.at("summaries").as_array();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].at("column").as_string(), "v");
  EXPECT_DOUBLE_EQ(summaries[0].at("mean").as_double(), 3.0);
}

}  // namespace
}  // namespace varbench::report
