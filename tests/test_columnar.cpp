// VBT1 binary columnar artifact contract (src/io/columnar/,
// docs/artifacts.md): losslessness — JSON → VBT → JSON is byte-identical
// for every cell kind and every registered study kind; zero-copy —
// columnar-backed f64 columns surface as spans into the mapping; strict
// rejection — every corrupt input fails with an io::JsonError naming the
// path and byte offset; and interchange — report and campaign consume
// mixed .json/.vbt artifact sets transparently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/io/columnar/format.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/report/artifact.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

namespace fs = std::filesystem;
namespace columnar = io::columnar;
using namespace std::chrono_literals;

/// A fresh scratch directory per test, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_columnar_" + tag + "_" +
               std::to_string(campaign::current_process_id()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// A table exercising every column encoding the writer can elect: f64,
/// i64 (negatives), u64 (above INT64_MAX), string-dict, and mixed
/// (nulls, bools, several number kinds, strings).
ResultTable all_types_table() {
  ResultTable t;
  t.name = "columnar:all_types";
  t.seed = 0xFFFFFFFFFFFFFFFFULL;  // full-range seed survives
  t.columns = {"seq", "measure", "delta", "big", "label", "mixed"};
  const std::vector<Cell> mixed{
      Cell{},                            // null
      Cell{true},                        //
      Cell{false},                       //
      Cell{0.5},                         //
      Cell{std::int64_t{-7}},            //
      Cell{std::uint64_t{1} << 63},      // wide unsigned
      Cell{std::string{"strings too"}},  //
      Cell{std::int64_t{42}},            // non-negative int stays unsigned
  };
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    t.add_row({Cell{std::uint64_t{i}}, Cell{0.25 * static_cast<double>(i)},
               Cell{std::int64_t{-3} * static_cast<std::int64_t>(i)},
               Cell{(std::uint64_t{1} << 63) + i},
               Cell{std::string{i % 2 == 0 ? "even" : "odd"}}, mixed[i]});
  }
  return t;
}

/// encode → disk → ResultTable::load, asserting byte-identity of both the
/// full (provenance-carrying) and canonical serializations.
void expect_vbt_roundtrip(const ResultTable& table, const std::string& path) {
  columnar::write_vbt(path, table, /*include_provenance=*/true);
  const ResultTable loaded = ResultTable::load(path);
  EXPECT_EQ(loaded.to_json_text(true), table.to_json_text(true)) << path;
  EXPECT_EQ(loaded.canonical_text(), table.canonical_text()) << path;
  EXPECT_TRUE(loaded == table) << path;
  ASSERT_NE(loaded.backing, nullptr) << path;
}

/// Cheap spec per study kind: the tiny shapes of test_study_shard /
/// test_figures_shard for the heavy kinds, scaled-down defaults for the
/// analytic ones.
StudySpec tiny_spec(StudyKind kind) {
  StudySpec spec = default_spec(kind);
  if (spec.case_study.empty()) spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260727;
  switch (kind) {
    case StudyKind::kVariance:
      spec.repetitions = 4;
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.hpo_repetitions = 2;
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kCompare:
      spec.repetitions = 4;
      spec.figure.num_resamples = 20;
      break;
    case StudyKind::kEstimator:
      spec.repetitions = 3;
      spec.figure.estimators = {"ideal", "fix_all"};
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kDetection:
      spec.repetitions = 3;
      spec.figure.k = 5;
      spec.figure.resamples = 10;
      spec.figure.p_grid = {0.5, 0.9};
      break;
    case StudyKind::kHpo:
      spec.repetitions = 1;
      spec.figure.budget = 3;
      break;
    case StudyKind::kFig01VarianceSources:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.hpo_repetitions = 2;
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kFig05EstimatorStderr:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.k_grid = {1, 5};
      break;
    case StudyKind::kFig06DetectionRates:
      spec.repetitions = 3;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.k = 5;
      spec.figure.resamples = 10;
      spec.figure.p_grid = {0.5, 0.9};
      break;
    case StudyKind::kFigF2HpoCurves:
      spec.repetitions = 2;
      spec.figure.tasks = {"cifar10_vgg11"};
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.budget = 3;
      break;
    case StudyKind::kFigG3Normality:
      spec.repetitions = 4;
      spec.figure.tasks = {"cifar10_vgg11"};
      break;
    case StudyKind::kFigH5MseDecomposition:
      spec.repetitions = 4;
      spec.figure.tasks = {"glue_rte_bert"};
      spec.figure.k = 5;
      break;
    case StudyKind::kFigI6Robustness:
      spec.repetitions = 4;
      break;
    case StudyKind::kAblationPairing:
      spec.repetitions = 4;
      spec.figure.resamples = 10;
      break;
    case StudyKind::kMultiContestants:
      spec.repetitions = 3;
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

// ------------------------------------------------------------ round trip

TEST(ColumnarRoundTrip, AllCellKindsAreLossless) {
  TempDir dir{"all_types"};
  ResultTable t = all_types_table();
  t.threads = 3;
  t.wall_time_ms = 12.5;
  expect_vbt_roundtrip(t, dir.file("all_types.vbt"));

  // The writer elected the narrowest encoding per column.
  const auto mapped = columnar::MappedTable::open(dir.file("all_types.vbt"));
  using columnar::ColumnType;
  EXPECT_EQ(mapped->column_type(0), ColumnType::kI64);  // non-negative ints
  EXPECT_EQ(mapped->column_type(1), ColumnType::kF64);
  EXPECT_EQ(mapped->column_type(2), ColumnType::kI64);
  EXPECT_EQ(mapped->column_type(3), ColumnType::kU64);
  EXPECT_EQ(mapped->column_type(4), ColumnType::kStringDict);
  EXPECT_EQ(mapped->column_type(5), ColumnType::kMixed);
  // First-appearance dictionary order, shared across columns.
  ASSERT_GE(mapped->dictionary().size(), 3u);
  EXPECT_EQ(mapped->dictionary()[0], "even");
  EXPECT_EQ(mapped->dictionary()[1], "odd");
  EXPECT_EQ(mapped->dictionary()[2], "strings too");
}

TEST(ColumnarRoundTrip, ShardedTableKeepsItsShard) {
  TempDir dir{"shard"};
  StudySpec spec = tiny_spec(StudyKind::kCompare);
  spec.shard = ShardSpec{1, 2};
  const ResultTable shard = run_study(spec);
  ASSERT_FALSE(shard.is_complete());
  expect_vbt_roundtrip(shard, dir.file("shard.vbt"));
}

TEST(ColumnarRoundTrip, DeterministicBytes) {
  // One rendering per table: the byte-identity contract of the JSON
  // artifact carries over to the binary one.
  const ResultTable t = all_types_table();
  EXPECT_EQ(columnar::encode_vbt(t, false), columnar::encode_vbt(t, false));
  EXPECT_NE(columnar::encode_vbt(t, true), columnar::encode_vbt(t, false));
}

TEST(ColumnarRoundTrip, EveryRegisteredStudyKind) {
  TempDir dir{"kinds"};
  for (const StudyKindInfo& info : registered_study_kinds()) {
    const ResultTable table = run_study(tiny_spec(info.kind));
    ASSERT_GT(table.rows.size(), 0u) << info.name;
    expect_vbt_roundtrip(table, dir.file(info.name + ".vbt"));
  }
}

// ------------------------------------------------------------- zero copy

TEST(ColumnarZeroCopy, SpansAliasTheMapping) {
  TempDir dir{"span"};
  const std::string path = dir.file("t.vbt");
  columnar::write_vbt(path, all_types_table());
  const ResultTable loaded = ResultTable::load(path);
  ASSERT_NE(loaded.backing, nullptr);

  const auto span = loaded.column_span("measure");
  ASSERT_TRUE(span.has_value());
  ASSERT_EQ(span->size(), loaded.rows.size());
  // Zero-copy means *the same memory* as the mapping, not a copy of it.
  EXPECT_EQ(span->data(), loaded.backing->f64_column(1).data());
  EXPECT_DOUBLE_EQ((*span)[3], 0.75);
  // column_values rides the span for f64 columns.
  EXPECT_EQ(loaded.column_values("measure"),
            std::vector<double>(span->begin(), span->end()));

  // Non-f64 columns and value-mutated tables fall back to the cell path.
  EXPECT_FALSE(loaded.column_span("label").has_value());
  ResultTable shrunk = loaded;
  shrunk.rows.pop_back();
  EXPECT_FALSE(shrunk.column_span("measure").has_value());
}

TEST(ColumnarZeroCopy, JsonLoadedTablesHaveNoBacking) {
  TempDir dir{"nospan"};
  const std::string path = dir.file("t.json");
  all_types_table().save(path);
  const ResultTable loaded = ResultTable::load(path);
  EXPECT_EQ(loaded.backing, nullptr);
  EXPECT_FALSE(loaded.column_span("measure").has_value());
  // ...but the values decode identically either way.
  EXPECT_EQ(loaded.column_values("measure"),
            all_types_table().column_values("measure"));
}

// ------------------------------------------------------ corrupt rejection

using Mutation = std::function<void(std::string&)>;

/// Write a mutated encoding and assert load fails mentioning the path,
/// the byte-offset clause, and `needle`.
void expect_rejects(const TempDir& dir, const std::string& name,
                    const Mutation& mutate, const std::string& needle) {
  std::string bytes = columnar::encode_vbt(all_types_table());
  mutate(bytes);
  const std::string path = dir.file(name);
  io::write_file(path, bytes);
  try {
    (void)ResultTable::load(path);
    FAIL() << name << ": corrupt artifact loaded successfully";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

std::uint64_t read_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

void write_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  std::memcpy(bytes.data() + off, &v, 8);
}

/// Byte offset of column `ci`'s directory entry (header field offsets per
/// src/io/columnar/format.h: coldir_offset is the u64 at byte 64).
std::size_t entry_off(const std::string& bytes, std::size_t ci) {
  return static_cast<std::size_t>(read_u64(bytes, 64)) +
         sizeof(columnar::ColumnEntry) * ci;
}

TEST(ColumnarCorrupt, BadMagic) {
  TempDir dir{"magic"};
  std::string bytes = columnar::encode_vbt(all_types_table());
  bytes[0] = 'X';
  const std::string path = dir.file("bad_magic.vbt");
  io::write_file(path, bytes);
  // The reader itself rejects the magic with the offset...
  try {
    (void)columnar::MappedTable::open(path);
    FAIL() << "opened a file without the VBT1 magic";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 0"), std::string::npos) << what;
  }
  // ...while ResultTable::load never dispatches a magic-less file to the
  // columnar reader: it falls through to the JSON parser, whose error
  // also names the path.
  try {
    (void)ResultTable::load(path);
    FAIL() << "loaded a corrupt file";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << e.what();
  }
}

TEST(ColumnarCorrupt, UnsupportedVersion) {
  TempDir dir{"version"};
  expect_rejects(
      dir, "v9.vbt",
      [](std::string& b) {
        const std::uint32_t v = 9;
        std::memcpy(b.data() + 8, &v, 4);
      },
      "unsupported version 9");
}

TEST(ColumnarCorrupt, Truncation) {
  TempDir dir{"trunc"};
  // Below the fixed header: rejected before any field is read.
  expect_rejects(
      dir, "stub.vbt", [](std::string& b) { b.resize(40); }, "truncated");
  // One byte short: the header's file_bytes no longer matches.
  expect_rejects(
      dir, "chopped.vbt", [](std::string& b) { b.resize(b.size() - 1); },
      "truncated or oversized");
}

TEST(ColumnarCorrupt, MisalignedBlock) {
  TempDir dir{"align"};
  expect_rejects(
      dir, "misaligned.vbt",
      [](std::string& b) {
        const std::size_t e = entry_off(b, 1);
        write_u64(b, e + 8, read_u64(b, e + 8) + 8);  // data_offset += 8
      },
      "not 64-byte aligned");
}

TEST(ColumnarCorrupt, OverlappingBlocks) {
  TempDir dir{"overlap"};
  expect_rejects(
      dir, "overlap.vbt",
      [](std::string& b) {
        // Column 2's data block redirected on top of column 1's.
        write_u64(b, entry_off(b, 2) + 8, read_u64(b, entry_off(b, 1) + 8));
      },
      "overlaps");
}

TEST(ColumnarCorrupt, OutOfBoundsBlock) {
  TempDir dir{"bounds"};
  expect_rejects(
      dir, "oob.vbt",
      [](std::string& b) {
        write_u64(b, entry_off(b, 1) + 8, columnar::align_up(b.size()) + 64);
      },
      "out of bounds");
}

TEST(ColumnarCorrupt, DanglingDictIndex) {
  TempDir dir{"dict"};
  expect_rejects(
      dir, "dangling.vbt",
      [](std::string& b) {
        // First cell of the string column (index 4 in all_types_table).
        const std::uint64_t data = read_u64(b, entry_off(b, 4) + 8);
        const std::uint32_t idx = 0xFFFF;
        std::memcpy(b.data() + data, &idx, 4);
      },
      "string-dict index 65535 out of range");
}

TEST(ColumnarCorrupt, UnknownMixedTag) {
  TempDir dir{"tag"};
  expect_rejects(
      dir, "badtag.vbt",
      [](std::string& b) {
        // First tag of the mixed column (index 5): aux_offset is the u64
        // at entry offset +24.
        b[static_cast<std::size_t>(read_u64(b, entry_off(b, 5) + 24))] =
            static_cast<char>(9);
      },
      "unknown cell tag 9");
}

TEST(ColumnarCorrupt, MetadataMustBeAValidArtifactDocument) {
  TempDir dir{"meta"};
  expect_rejects(
      dir, "badmeta.vbt",
      [](std::string& b) {
        b[static_cast<std::size_t>(read_u64(b, 32))] = '!';  // meta_offset
      },
      "metadata block");
}

// ----------------------------------------------------------- interchange

TEST(ColumnarFormat, InferArtifactFormat) {
  EXPECT_EQ(infer_artifact_format("a/b.vbt"), ArtifactFormat::kBinary);
  EXPECT_EQ(infer_artifact_format("a/b.vbt.part"), ArtifactFormat::kBinary);
  EXPECT_EQ(infer_artifact_format("a/b.json"), ArtifactFormat::kJson);
  EXPECT_EQ(infer_artifact_format("a/b.json.part"), ArtifactFormat::kJson);
  EXPECT_EQ(infer_artifact_format("bare"), ArtifactFormat::kJson);
}

TEST(ColumnarFormat, SaveDispatchesOnExtension) {
  TempDir dir{"save"};
  const ResultTable t = all_types_table();
  t.save(dir.file("t.vbt"));
  t.save(dir.file("t.json"));
  const std::string binary = io::read_file(dir.file("t.vbt"));
  EXPECT_TRUE(columnar::has_vbt_magic(
      {reinterpret_cast<const unsigned char*>(binary.data()), binary.size()}));
  EXPECT_EQ(io::read_file(dir.file("t.json")), t.to_json_text(true));
  // Both load back to the same value.
  EXPECT_TRUE(ResultTable::load(dir.file("t.vbt")) ==
              ResultTable::load(dir.file("t.json")));
}

TEST(ColumnarInterchange, ReportMergesMixedFormatShardDir) {
  TempDir dir{"mixdir"};
  const StudySpec spec = tiny_spec(StudyKind::kCompare);
  const ResultTable unsharded = run_study(spec);
  for (std::size_t i = 0; i < 2; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 2};
    run_study(shard_spec).save(
        dir.file("s" + std::to_string(i) + (i == 0 ? ".json" : ".vbt")));
  }
  const report::DirArtifacts loaded = report::load_artifact_dir(dir.str());
  ASSERT_EQ(loaded.studies.size(), 1u);
  EXPECT_EQ(loaded.studies[0].table.canonical_text(),
            unsharded.canonical_text());
}

TEST(ColumnarInterchange, BinaryCampaignEndToEnd) {
  TempDir dir{"campaign"};
  const StudySpec spec = tiny_spec(StudyKind::kCompare);
  campaign::CampaignConfig cfg;
  cfg.dir = dir.str();
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.stale_after = 10min;
  cfg.poll_interval = 1ms;
  cfg.format = ArtifactFormat::kBinary;
  const campaign::CampaignReport report =
      campaign::run_campaign(cfg, {spec}, campaign::in_process_launcher());
  ASSERT_TRUE(report.ok()) << (report.failures.empty()
                                   ? "incomplete"
                                   : report.failures.front());
  ASSERT_EQ(report.merged_outputs.size(), 1u);
  const std::string merged_path = report.merged_outputs.front();
  EXPECT_TRUE(merged_path.ends_with(".vbt")) << merged_path;
  // The merged binary artifact is the canonical table, bit for bit.
  EXPECT_EQ(ResultTable::load(merged_path).canonical_text(),
            run_study(spec).canonical_text());

  // Resuming in the other format reuses every binary shard: no relaunches,
  // and the re-merged output switches extension without leaving the stale
  // sibling behind.
  campaign::CampaignConfig resumed = cfg;
  resumed.resume = true;
  resumed.format = ArtifactFormat::kJson;
  const campaign::CampaignReport second =
      campaign::run_campaign(resumed, {spec}, campaign::in_process_launcher());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.reused, second.tasks);
  EXPECT_EQ(second.launched, 0u);
  ASSERT_EQ(second.merged_outputs.size(), 1u);
  const std::string json_merged = second.merged_outputs.front();
  EXPECT_TRUE(json_merged.ends_with(".json")) << json_merged;
  EXPECT_FALSE(fs::exists(merged_path)) << "stale .vbt merged output left";
  EXPECT_EQ(io::read_file(json_merged),
            ResultTable::load(json_merged).canonical_text());
}

}  // namespace
}  // namespace varbench::study
