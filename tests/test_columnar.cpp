// VBT1 binary columnar artifact contract (src/io/columnar/,
// docs/artifacts.md): losslessness — JSON → VBT → JSON is byte-identical
// for every cell kind and every registered study kind, and the encoded
// bytes are pinned; zero-copy — a loaded table's columns are the mapped
// blocks; the typed-column views behave like the io::Json cells they
// replace; strict rejection — every corrupt input fails with an
// io::JsonError naming the path and byte offset; and interchange — report
// and campaign consume mixed .json/.vbt artifact sets transparently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/io/columnar/format.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/report/artifact.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_kinds.h"
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

/// A table whose columns change encoding at their last row: u64 from
/// i64, and mixed from u64, f64, string-dict and (from the first row)
/// null. "words" interns its strings in a different order row-major than
/// column-major, so the encoder's dictionary remap is exercised.
ResultTable late_promotion_table() {
  ResultTable t;
  t.name = "columnar:late_promotion";
  t.seed = 11;
  t.columns = {"seq",      "u",     "i",        "wide_neg",
               "dbl_int", "words", "str_null", "null_int"};
  const std::uint64_t wide = std::uint64_t{1} << 63;
  const std::vector<Row> rows{
      {Cell{std::uint64_t{0}}, Cell{std::uint64_t{1}}, Cell{std::int64_t{1}},
       Cell{wide}, Cell{1.5}, Cell{"b"}, Cell{"a"}, Cell{}},
      {Cell{std::uint64_t{1}}, Cell{std::uint64_t{2}}, Cell{std::int64_t{1}},
       Cell{wide}, Cell{1.5}, Cell{"c"}, Cell{"a"}, Cell{}},
      {Cell{std::uint64_t{2}}, Cell{wide}, Cell{std::int64_t{-1}},
       Cell{std::int64_t{-1}}, Cell{std::uint64_t{2}}, Cell{"b"}, Cell{},
       Cell{std::uint64_t{1}}},
  };
  for (const Row& row : rows) t.add_row(row);
  return t;
}

ResultTable empty_table() {
  ResultTable t;
  t.name = "columnar:empty";
  t.seed = 3;
  t.columns = {"seq", "measure"};
  return t;
}

/// FNV-1a-64 of the four serializations, in a fixed order.
std::vector<std::uint64_t> serialization_digests(const ResultTable& t) {
  return {rngx::hash_tag(columnar::encode_vbt(t, false)),
          rngx::hash_tag(columnar::encode_vbt(t, true)),
          rngx::hash_tag(t.canonical_text()), rngx::hash_tag(t.to_csv())};
}

/// encode → disk → ResultTable::load, asserting byte-identity of both the
/// full (provenance-carrying) and canonical serializations.
void expect_vbt_roundtrip(const ResultTable& table, const std::string& path) {
  columnar::write_vbt(path, table, /*include_provenance=*/true);
  const ResultTable loaded = ResultTable::load(path);
  EXPECT_EQ(loaded.to_json_text(true), table.to_json_text(true)) << path;
  EXPECT_EQ(loaded.canonical_text(), table.canonical_text()) << path;
  EXPECT_TRUE(loaded == table) << path;
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

std::uint64_t read_u64(const std::string& bytes, std::size_t off);
void write_u64(std::string& bytes, std::size_t off, std::uint64_t v);
std::size_t entry_off(const std::string& bytes, std::size_t ci);

/// The summary blocks of `table`'s kind.
std::vector<ResultTable> summary_of(const ResultTable& table) {
  return kind_def(table.spec.value().kind).summarize(table);
}

TEST(ColumnarRoundTrip, EveryRegisteredStudyKind) {
  TempDir dir{"kinds"};
  for (const StudyKindInfo& info : registered_study_kinds()) {
    const ResultTable table = run_study(tiny_spec(info.kind));
    ASSERT_GT(table.rows.size(), 0u) << info.name;
    expect_vbt_roundtrip(table, dir.file(info.name + ".vbt"));
    // Every kind's summarizer runs over the row views, built and adopted
    // alike, with the same tables.
    const std::vector<ResultTable> summary = summary_of(table);
    EXPECT_GT(summary.size(), 0u) << info.name;
    if (info.kind == StudyKind::kMultiDataset) {
      // One dataset: nothing for the Friedman test to rank across.
      ASSERT_GE(summary.size(), 2u);
      const ResultTable& demsar = summary[1];
      EXPECT_EQ(demsar.name,
                "Demsar: Friedman test + Nemenyi critical difference");
      ASSERT_EQ(demsar.columns,
                (std::vector<std::string>{"skipped", "datasets"}));
      ASSERT_EQ(demsar.rows.size(), 1u);
      EXPECT_EQ(demsar.rows[0][0].as_string(),
                "both need at least 2 datasets");
      EXPECT_EQ(demsar.rows[0][1].as_uint64(), 1u);
    }
    EXPECT_EQ(summary_of(ResultTable::load(dir.file(info.name + ".vbt"))),
              summary)
        << info.name;
  }
}

TEST(ColumnarRoundTrip, EncodedBytesArePinned) {
  // FNV-1a-64 of encode_vbt(t, false), encode_vbt(t, true),
  // canonical_text() and to_csv(), recorded on the commit before tables
  // stored typed columns (when every cell was an io::Json): the typed
  // store must elect, remap and render exactly what that encoder did.
  ResultTable all_types = all_types_table();
  all_types.threads = 3;
  all_types.wall_time_ms = 12.5;
  EXPECT_EQ(serialization_digests(all_types),
            (std::vector<std::uint64_t>{
                0x9a9e72303b42eef6ULL, 0x2a97abe44ef34587ULL,
                0xbd7aee8a9c05410cULL, 0x9d97a501452bdbeaULL}));
  EXPECT_EQ(serialization_digests(empty_table()),
            (std::vector<std::uint64_t>{
                0x30eea0bcb49ae16aULL, 0x551cc41015861c76ULL,
                0x34052a3ad77a97bdULL, 0xff95a49714ebf3beULL}));
  EXPECT_EQ(serialization_digests(late_promotion_table()),
            (std::vector<std::uint64_t>{
                0x1f8d5c491d3c6844ULL, 0x7f2a66efcbfbac5cULL,
                0xdabe86368476e4c6ULL, 0x172bcb14164ba43eULL}));
  const ResultTable late = late_promotion_table();
  using columnar::ColumnType;
  const std::vector<ColumnType> want{
      ColumnType::kI64,   ColumnType::kU64,   ColumnType::kI64,
      ColumnType::kMixed, ColumnType::kMixed, ColumnType::kStringDict,
      ColumnType::kMixed, ColumnType::kMixed};
  for (std::size_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(late.rows.column_type(c), want[c]) << late.columns[c];
  }
}

TEST(ColumnarRoundTrip, LoadReelectsAHandWrittenEncoding) {
  // The writer never stores non-negative integers that fit int64 as u64,
  // but a valid file may: relabel column 0 ("seq", i64) as u64 in place.
  // The loaded table re-elects, so it writes what the writer would.
  TempDir dir{"relabel"};
  const ResultTable t = all_types_table();
  const std::string bytes = columnar::encode_vbt(t, false);
  std::string patched = bytes;
  const std::uint32_t u64 = static_cast<std::uint32_t>(
      columnar::ColumnType::kU64);
  std::memcpy(patched.data() + entry_off(patched, 0), &u64, 4);
  const std::string path = dir.file("relabel.vbt");
  io::write_file(path, patched);
  ASSERT_EQ(columnar::MappedTable::open(path)->column_type(0),
            columnar::ColumnType::kU64);
  const ResultTable loaded = ResultTable::load(path);
  EXPECT_EQ(loaded.rows.column_type(0), columnar::ColumnType::kI64);
  EXPECT_TRUE(loaded.rows == t.rows);
  EXPECT_EQ(columnar::encode_vbt(loaded, false), bytes);

  // Mixed cells the writer never stores so: a non-negative integer tagged
  // i64 (row 7, 42) and a null with a payload (row 0). Both read as
  // io::Json holds them, unsigned and without a payload, and the column
  // re-encodes as the writer would.
  const auto tag_byte = [](columnar::CellTag tag) {
    return static_cast<char>(tag);
  };
  {
    std::string mixed = bytes;
    const std::size_t e = entry_off(mixed, 5);
    const std::size_t tags = read_u64(mixed, e + 24);  // aux_offset
    const std::size_t data = read_u64(mixed, e + 8);   // data_offset
    ASSERT_EQ(mixed[tags + 7], tag_byte(columnar::CellTag::kU64));
    ASSERT_EQ(mixed[tags + 0], tag_byte(columnar::CellTag::kNull));
    mixed[tags + 7] = tag_byte(columnar::CellTag::kI64);
    write_u64(mixed, data + 0, 7);
    const std::string mixed_path = dir.file("mixed.vbt");
    io::write_file(mixed_path, mixed);
    const ResultTable m = ResultTable::load(mixed_path);
    EXPECT_EQ(m.rows[7][5].number_kind(), io::Json::NumKind::kUint);
    EXPECT_EQ(m.rows[0][5].payload(), 0u);
    EXPECT_TRUE(m.rows == t.rows);
    EXPECT_EQ(columnar::encode_vbt(m, false), bytes);
  }
  // Next to a value above INT64_MAX, an i64-tagged 0 leaves a column of
  // non-negative integers only, which elects u64: the bytes are those of
  // the table built from [0, 1, 2^63].
  {
    const auto ints_table = [](const Cell& first) {
      ResultTable ints;
      ints.name = "columnar:ints";
      ints.columns = {"seq", "n"};
      ints.add_row({Cell{std::uint64_t{0}}, first});
      ints.add_row({Cell{std::uint64_t{1}}, Cell{std::uint64_t{1}}});
      ints.add_row({Cell{std::uint64_t{2}}, Cell{std::uint64_t{1} << 63}});
      return ints;
    };
    std::string ints = columnar::encode_vbt(ints_table(Cell{}), false);
    const std::size_t tags = read_u64(ints, entry_off(ints, 1) + 24);
    ASSERT_EQ(ints[tags + 0], tag_byte(columnar::CellTag::kNull));
    ints[tags + 0] = tag_byte(columnar::CellTag::kI64);
    const std::string ints_path = dir.file("ints.vbt");
    io::write_file(ints_path, ints);
    const ResultTable loaded_ints = ResultTable::load(ints_path);
    EXPECT_EQ(loaded_ints.rows.column_type(1), columnar::ColumnType::kU64);
    const ResultTable want = ints_table(Cell{std::uint64_t{0}});
    EXPECT_TRUE(loaded_ints.rows == want.rows);
    EXPECT_EQ(columnar::encode_vbt(loaded_ints, false),
              columnar::encode_vbt(want, false));
  }
}

TEST(ColumnarRoundTrip, DuplicateColumnNamesAreRejected) {
  // JSON: the second "x" would otherwise shadow the first in every
  // column_index lookup (report showed the first column twice).
  const std::string json = R"({"schema": "varbench.result_table.v1",
      "name": "dup", "meta": {"seed": 1, "shard": {"index": 0, "count": 1}},
      "columns": ["seq", "x", "x"],
      "rows": [[0, 1.5, 9.0], [1, 2.5, 8.0], [2, 3.5, 7.0]]})";
  try {
    (void)ResultTable::from_json_text(json);
    FAIL() << "duplicate columns loaded";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(
                  "duplicate column name 'x' (columns 1 and 2)"),
              std::string::npos)
        << e.what();
  }
  ResultTable built;
  built.name = "dup";
  built.columns = {"seq", "x", "x"};
  EXPECT_THROW(built.add_row({Cell{std::uint64_t{0}}, Cell{1.5}, Cell{9.0}}),
               io::JsonError);
  EXPECT_THROW((void)columnar::encode_vbt(built), io::JsonError);

  // VBT: rename column 2 in the metadata block in place ("measure" and
  // "seq" differ in length, so patch "delta" -> "label" instead).
  TempDir dir{"dup"};
  std::string bytes = columnar::encode_vbt(all_types_table());
  const auto meta = static_cast<std::size_t>(read_u64(bytes, 32));
  const std::size_t at = bytes.find("\"delta\"", meta);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 7, "\"label\"");
  const std::string path = dir.file("dup.vbt");
  io::write_file(path, bytes);
  try {
    (void)ResultTable::load(path);
    FAIL() << "duplicate columns loaded";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " + std::to_string(meta)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("duplicate column name 'label' (columns 2 and 4)"),
              std::string::npos)
        << what;
  }
}

// ------------------------------------------------------------- zero copy

/// Whether `p` lies in a mapping of the file at `path` (Linux: read from
/// /proc/self/maps); std::nullopt where the map list is unavailable.
std::optional<bool> in_mapping_of(const void* p, const std::string& path) {
  std::ifstream maps{"/proc/self/maps"};
  if (!maps) return std::nullopt;
  const std::string file = fs::canonical(path).string();
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  std::string line;
  while (std::getline(maps, line)) {
    if (!line.ends_with(" " + file)) continue;
    std::istringstream fields{line};
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    char dash = 0;
    fields >> std::hex >> begin >> dash >> end;
    if (at >= begin && at < end) return true;
  }
  return false;
}

TEST(ColumnarZeroCopy, LoadedF64ColumnIsTheMapping) {
  TempDir dir{"span"};
  const std::string vbt = dir.file("t.vbt");
  const std::string json = dir.file("t.json");
  const ResultTable built = all_types_table();
  built.save(vbt);
  built.save(json);
  const ResultTable loaded = ResultTable::load(vbt);
  const auto span = loaded.rows.f64_column(1);
  ASSERT_EQ(span.size(), loaded.rows.size());
  EXPECT_DOUBLE_EQ(span[3], 0.75);
  const auto mapped = in_mapping_of(span.data(), vbt);
  if (!mapped.has_value()) GTEST_SKIP() << "no /proc/self/maps here";
  // Zero-copy means *the same memory* as the file mapping, not a copy of
  // it — and a copy of the table shares it too.
  EXPECT_TRUE(*mapped);
  const ResultTable copy = loaded;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.rows.f64_column(1).data(), span.data());
  // A JSON load decodes into owned columns; the values agree either way.
  const ResultTable from_json = ResultTable::load(json);
  EXPECT_FALSE(*in_mapping_of(from_json.rows.f64_column(1).data(), vbt));
  EXPECT_EQ(from_json.column_values("measure"), loaded.column_values("measure"));
  EXPECT_EQ(loaded.column_values("measure"),
            std::vector<double>(span.begin(), span.end()));
}

// ----------------------------------------------------------------- views

TEST(ColumnarViews, AsStringOutlivesItsRowAndCellViews) {
  TempDir dir{"strref"};
  const std::string path = dir.file("t.vbt");
  all_types_table().save(path);
  const ResultTable built = all_types_table();
  const ResultTable loaded = ResultTable::load(path);
  for (const ResultTable* t : {&built, &loaded}) {
    // Neither the RowView nor the CellView outlives its full-expression;
    // the strings live in the table's dictionary (ASan checks).
    const std::string* odd = &t->rows[1][4].as_string();
    const std::string* mixed = &t->rows.at(6)[5].as_string();
    std::vector<const std::string*> labels;
    for (const auto& row : t->rows) labels.push_back(&row[4].as_string());
    EXPECT_EQ(*odd, "odd");
    EXPECT_EQ(*mixed, "strings too");
    ASSERT_EQ(labels.size(), 8u);
    EXPECT_EQ(*labels[6], "even");
    EXPECT_EQ(labels[0], labels[2]);  // one dictionary entry per string
  }
  // Checked accessors keep io::Json's semantics and error texts.
  const auto row = loaded.rows[4];
  EXPECT_THROW((void)row[5].as_uint64(), io::JsonError);
  EXPECT_EQ(row[5].as_int64(), -7);
  EXPECT_EQ(row[5].number_kind(), io::Json::NumKind::kInt);
  EXPECT_EQ(loaded.rows[0][0].number_kind(), io::Json::NumKind::kUint);
  EXPECT_EQ(loaded.rows[7][5].as_uint64(), 42u);
  EXPECT_TRUE(loaded.rows[0][5].is_null());
  EXPECT_TRUE(loaded.rows[1][5].as_bool());
  std::string json_error;
  try {
    (void)io::Json{0.0}.as_string();
  } catch (const io::JsonError& e) {
    json_error = e.what();
  }
  try {
    (void)loaded.rows[0][1].as_string();
    FAIL() << "a number cell answered as_string()";
  } catch (const io::JsonError& e) {
    EXPECT_EQ(std::string{e.what()}, json_error);
  }
  for (std::size_t r = 0; r < loaded.rows.size(); ++r) {
    for (std::size_t c = 0; c < loaded.columns.size(); ++c) {
      const io::Json cell = loaded.rows[r][c].to_json();
      EXPECT_EQ(loaded.rows[r][c].dump(), cell.dump()) << r << "," << c;
      EXPECT_EQ(loaded.rows[r].to_row()[c], cell);
    }
  }
}

TEST(ColumnarViews, RowsCompareByCellValueAcrossEveryOrigin) {
  TempDir dir{"rowseq"};
  const ResultTable built = late_promotion_table();
  built.save(dir.file("t.json"));
  built.save(dir.file("t.vbt"));
  std::vector<ResultTable> shards(2);
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s].name = built.name;
    shards[s].seed = built.seed;
    shards[s].columns = built.columns;
    shards[s].shard = ShardSpec{s, 2};
  }
  for (std::size_t r = 0; r < built.rows.size(); ++r) {
    shards[r % 2].add_row(built.rows[r].to_row());
  }
  shards[1].save(dir.file("s1.vbt"));  // one shard adopted, one built
  shards[1] = ResultTable::load(dir.file("s1.vbt"));
  const ResultTable merged = merge_result_tables(std::move(shards));
  const ResultTable from_json = ResultTable::load(dir.file("t.json"));
  const ResultTable from_vbt = ResultTable::load(dir.file("t.vbt"));
  for (const ResultTable* t : {&from_json, &from_vbt, &merged}) {
    EXPECT_TRUE(t->rows == built.rows);
    EXPECT_TRUE(built.rows == t->rows);
    EXPECT_EQ(t->canonical_text(), built.canonical_text());
    EXPECT_EQ(columnar::encode_vbt(*t, false),
              columnar::encode_vbt(built, false));
  }
  // Cells compare by value, as io::Json does: 2 == 2.0, "a" != null.
  const auto rebuilt = [&built](const std::function<void(Row&)>& edit) {
    ResultTable t;
    t.columns = built.columns;
    for (const auto& row : built.rows) {
      Row cells = row.to_row();
      edit(cells);
      t.add_row(cells);
    }
    return t;
  };
  const ResultTable widened = rebuilt([](Row& cells) {
    if (cells[4].number_kind() == io::Json::NumKind::kUint) {
      cells[4] = Cell{cells[4].as_double()};
    }
  });
  EXPECT_TRUE(widened.rows == built.rows);
  const ResultTable nulled = rebuilt([](Row& cells) {
    if (cells[6].is_string()) cells[6] = Cell{};
  });
  EXPECT_FALSE(nulled.rows == built.rows);
}

TEST(ColumnarViews, ConvertOverItsOwnFileRewritesIdenticalBytes) {
  // `varbench convert x.vbt x.vbt`: the table's columns are the mapping
  // of the very file the save replaces, so the save must leave that file
  // intact and put the new one in its place.
  TempDir dir{"inplace"};
  const std::string path = dir.file("x.vbt");
  const ResultTable built = all_types_table();
  built.save(path);
  const std::string before = io::read_file(path);
  {
    const ResultTable t = ResultTable::load(path);
    t.save(path);
  }
  EXPECT_EQ(io::read_file(path), before);
  const ResultTable t = ResultTable::load(path);
  t.save(dir.file("x.json"));
  EXPECT_EQ(io::read_file(dir.file("x.json")), built.to_json_text(true));

  // `convert x.vbt x.vbt --canonical`: the metadata loses its provenance,
  // so every block of the new file moves, and the loaded table still
  // reads the old file's cells.
  t.save(path, ArtifactFormat::kBinary, /*include_provenance=*/false);
  const std::string canonical = io::read_file(path);
  EXPECT_EQ(canonical, columnar::encode_vbt(built, false));
  EXPECT_NE(read_u64(canonical, entry_off(canonical, 1) + 8),
            read_u64(before, entry_off(before, 1) + 8));
  EXPECT_TRUE(t.rows == built.rows);
  EXPECT_EQ(t.to_json_text(true), built.to_json_text(true));
}

TEST(ColumnarViews, CsvPinsTheParentAndQuotesCarriageReturns) {
  ResultTable t;
  t.name = "csv";
  t.columns = {"seq", "text", "num", "flag"};
  t.add_row({Cell{std::uint64_t{0}}, Cell{}, Cell{1.0}, Cell{true}});
  t.add_row({Cell{std::uint64_t{1}}, Cell{"a,b"}, Cell{std::int64_t{-5}},
             Cell{false}});
  t.add_row({Cell{std::uint64_t{2}}, Cell{"say \"hi\""},
             Cell{std::uint64_t{1} << 63}, Cell{}});
  t.add_row({Cell{std::uint64_t{3}}, Cell{"line\nbreak"}, Cell{0.25},
             Cell{true}});
  // Rows 0-3 are the parent's bytes: null empty, integral double "1.0",
  // RFC 4180 quoting of comma, quote and LF.
  const std::string pinned =
      "seq,text,num,flag\n"
      "0,,1.0,true\n"
      "1,\"a,b\",-5,false\n"
      "2,\"say \"\"hi\"\"\",9223372036854775808,\n"
      "3,\"line\nbreak\",0.25,true\n";
  EXPECT_EQ(t.to_csv(), pinned);
  // A CR is quoted too (the parent left it bare, splitting the record).
  t.add_row({Cell{std::uint64_t{4}}, Cell{"a\rb"}, Cell{-0.5}, Cell{false}});
  EXPECT_EQ(t.to_csv(), pinned + "4,\"a\rb\",-0.5,false\n");
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
