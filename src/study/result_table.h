// The canonical result artifact: one named-column table of raw,
// per-repetition values plus the metadata needed to reproduce and merge it
// (spec, seed, shard, threads, wall time). Tables hold raw measures — not
// aggregates — so that merging shard tables reconstructs the unsharded
// result exactly and every summary statistic is derivable downstream.
//
// Identity vs provenance: columns, rows, spec, seed, and shard define WHAT
// was computed and are bit-stable under the determinism contract; threads
// and wall time describe HOW it was computed and can never be (wall time is
// wall time). `to_json_text(false)` / `canonical_text()` serialize identity
// only — that is the form the shard/merge equality check and the CI diff
// operate on (docs/study_api.md).
//
// Storage is columnar: one typed column per table column, in the VBT1
// encodings of src/io/columnar/format.h (f64, i64, u64, string-dict,
// mixed tag + payload), so a table holds 8 bytes per numeric cell instead
// of one io::Json each and a VBT load adopts the mapped column blocks
// as they are. io::Json appears only at the boundary: add_row decodes its
// scalars, and the JSON reader/writer parse and render the metadata.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/io/columnar/format.h"
#include "src/io/json.h"
#include "src/study/study_spec.h"

namespace varbench::io::columnar {
class MappedTable;
}  // namespace varbench::io::columnar

namespace varbench::study {

/// On-disk artifact encodings. kJson is the human-readable interchange and
/// debug format; kBinary is the VBT1 columnar format (src/io/columnar/,
/// docs/artifacts.md) — lossless in both directions. kAuto resolves from
/// the file name: a ".vbt" extension (also behind a trailing ".part")
/// means binary, anything else JSON.
enum class ArtifactFormat { kAuto, kJson, kBinary };

/// The kAuto resolution rule, shared by save(), the CLI, and the campaign
/// launchers. Never returns kAuto.
[[nodiscard]] ArtifactFormat infer_artifact_format(std::string_view path);

/// What producers hand to add_row: scalar JSON values (numbers keep their
/// kind, strings stay strings), so storage is exact in both directions.
using Cell = io::Json;
using Row = std::vector<Cell>;

/// One stored cell, decoded: its io::Json kind plus its payload. Accessors
/// have io::Json's semantics (same conversions, same error texts); a
/// string cell refers into its table's dictionary, so as_string() stays
/// valid after the view is gone, for as long as the table is unmodified.
class CellView {
 public:
  using Tag = io::columnar::CellTag;

  CellView(Tag tag, std::uint64_t payload, const std::string* str)
      : tag_{tag}, payload_{payload}, str_{str} {}

  [[nodiscard]] io::Json::Type type() const;
  [[nodiscard]] bool is_null() const { return tag_ == Tag::kNull; }
  [[nodiscard]] bool is_bool() const {
    return tag_ == Tag::kFalse || tag_ == Tag::kTrue;
  }
  [[nodiscard]] bool is_number() const {
    return tag_ == Tag::kF64 || tag_ == Tag::kU64 || tag_ == Tag::kI64;
  }
  [[nodiscard]] bool is_string() const { return tag_ == Tag::kString; }
  [[nodiscard]] io::Json::NumKind number_kind() const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Compact JSON rendering, byte-identical to the equal io::Json's dump().
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;
  [[nodiscard]] io::Json to_json() const;

  /// io::Json equality: numbers compare by value across kinds.
  friend bool operator==(const CellView& a, const CellView& b);

  /// The stored encoding: a VBT1 cell tag and its payload bits (doubles as
  /// IEEE-754 bits, integers as two's complement, strings as the table's
  /// dictionary code).
  [[nodiscard]] Tag tag() const { return tag_; }
  [[nodiscard]] std::uint64_t payload() const { return payload_; }

 private:
  Tag tag_;
  std::uint64_t payload_;
  const std::string* str_;  // dictionary entry of a string cell
};

class ResultTable;
class Rows;

/// One row of a table: `row[c]` decodes column c.
class RowView {
 public:
  RowView(const Rows* rows, std::size_t r) : rows_{rows}, r_{r} {}
  [[nodiscard]] CellView operator[](std::size_t c) const;
  [[nodiscard]] std::size_t size() const;
  /// The row as add_row takes it.
  [[nodiscard]] Row to_row() const;

 private:
  const Rows* rows_;
  std::size_t r_;
};

/// The typed column store behind ResultTable::rows, read-only from the
/// outside: `rows.size()`, `rows[r][c]`, range-for over RowViews, and `==`
/// by cell value. Only ResultTable, the VBT reader and merge fill it.
class Rows {
 public:
  using ColumnType = io::columnar::ColumnType;

  /// Yields RowViews by value (a proxy iterator, so only an input
  /// iterator to pre-C++20 algorithms).
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = RowView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RowView;

    iterator() = default;
    iterator(const Rows* rows, std::size_t r) : rows_{rows}, r_{r} {}
    RowView operator*() const { return RowView{rows_, r_}; }
    iterator& operator++() {
      ++r_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++r_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.r_ == b.r_;
    }

   private:
    const Rows* rows_ = nullptr;
    std::size_t r_ = 0;
  };

  [[nodiscard]] std::size_t size() const { return nrows_; }
  [[nodiscard]] bool empty() const { return nrows_ == 0; }
  [[nodiscard]] std::size_t num_columns() const { return cols_.size(); }
  [[nodiscard]] RowView operator[](std::size_t r) const { return {this, r}; }
  /// Bounds-checked row: throws std::out_of_range past the end.
  [[nodiscard]] RowView at(std::size_t r) const;
  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, nrows_}; }
  [[nodiscard]] CellView cell(std::size_t r, std::size_t c) const;

  /// Each column's encoding — always the one the VBT1 writer elects for
  /// its cells (kF64 for a column with no cells).
  [[nodiscard]] ColumnType column_type(std::size_t c) const;
  /// Typed payloads; each throws io::JsonError unless the column has the
  /// matching type. Spans alias the store (or the adopted mapping).
  [[nodiscard]] std::span<const double> f64_column(std::size_t c) const;
  [[nodiscard]] std::span<const std::int64_t> i64_column(std::size_t c) const;
  [[nodiscard]] std::span<const std::uint64_t> u64_column(std::size_t c) const;
  [[nodiscard]] std::span<const std::uint32_t> dict_codes(std::size_t c) const;
  /// kMixed columns: one CellTag and one payload per row.
  [[nodiscard]] std::span<const std::uint8_t> mixed_tags(std::size_t c) const;
  [[nodiscard]] std::span<const std::uint64_t> mixed_payloads(
      std::size_t c) const;
  /// The strings string cells index (codes in append order; the encoder
  /// remaps them to first appearance).
  [[nodiscard]] const std::vector<std::string>& dictionary() const;

  friend bool operator==(const Rows& a, const Rows& b);

 private:
  friend class ResultTable;
  friend ResultTable merge_result_tables(std::vector<ResultTable> shards);

  /// Which cell kinds a column has seen — the VBT1 election inputs.
  struct Kinds {
    bool dbl = false;
    bool nonneg = false;  // non-negative integers
    bool neg = false;     // negative integers (the only i64-tagged cells)
    bool wide = false;    // integers above INT64_MAX
    bool str = false;
    bool other = false;   // null / bool
    Kinds& operator|=(const Kinds& o);
    void see(CellView::Tag tag, std::uint64_t payload);
    [[nodiscard]] ColumnType elect() const;
  };

  struct Column {
    ColumnType type = ColumnType::kF64;
    Kinds kinds;
    std::vector<std::uint64_t> words;  // f64/i64/u64 bits, mixed payloads
    std::vector<std::uint32_t> codes;  // string-dict codes
    std::vector<std::uint8_t> tags;    // mixed tags
    // An adopted VBT1 block: while set, it is the payload and the owned
    // vectors are empty.
    const unsigned char* mapped = nullptr;
    const unsigned char* mapped_tags = nullptr;
  };

  void init(std::size_t ncols);
  /// Store every column of `mapped` without copying its blocks.
  void adopt(std::shared_ptr<const io::columnar::MappedTable> mapped);
  /// Copy adopted blocks and dictionary into owned storage.
  void detach();
  void append(const Row& row);
  /// Append one cell's (tag, payload) to column c, whose type already
  /// admits it; string payloads are codes of this table's dictionary.
  void push(std::size_t c, CellView::Tag tag, std::uint64_t payload);
  void retype(std::size_t c, ColumnType type);
  [[nodiscard]] std::uint32_t intern(const std::string& s);
  [[nodiscard]] const unsigned char* payload_bytes(const Column& col) const;
  [[nodiscard]] const Column& typed(std::size_t c, ColumnType want) const;

  std::vector<Column> cols_;
  std::size_t nrows_ = 0;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::shared_ptr<const io::columnar::MappedTable> mapping_;
};

class ResultTable {
 public:
  /// Artifact name, e.g. "variance:cifar10_vgg11" or a bench figure id.
  std::string name;
  /// The producing spec, in execution-normal form: shard cleared (the
  /// artifact's own slice lives in `shard`) and threads reset to 1 — both
  /// are execution details results are invariant to; `provenance` records
  /// the actual values. Absent for tables emitted by bench harnesses that
  /// are not spec-driven.
  std::optional<StudySpec> spec;
  ShardSpec shard;             // which slice of the study this table holds
  std::uint64_t seed = 0;      // identity metadata (== spec->seed when set)
  std::size_t threads = 1;     // provenance
  double wall_time_ms = 0.0;   // provenance
  std::vector<std::string> columns;
  /// The cells, read-only; add_row is the one way in.
  Rows rows;

  /// Append with arity check, decoding the scalars into the typed columns
  /// at once. The first row fixes the columns (names must be distinct).
  /// The first column is conventionally "seq", the row's global position
  /// in the unsharded enumeration (merge sorts on it).
  void add_row(const Row& row);

  [[nodiscard]] std::size_t column_index(std::string_view column) const;
  [[nodiscard]] bool has_column(std::string_view column) const;

  /// All values of one column as doubles (throws on non-numeric cells).
  [[nodiscard]] std::vector<double> column_values(
      std::string_view column) const;

  [[nodiscard]] bool is_complete() const { return shard.is_unsharded(); }

  friend bool operator==(const ResultTable& a, const ResultTable& b) {
    return a.name == b.name && a.spec == b.spec && a.shard == b.shard &&
           a.seed == b.seed && a.threads == b.threads &&
           a.wall_time_ms == b.wall_time_ms && a.columns == b.columns &&
           a.rows == b.rows;
  }

  /// The JSON document without its "rows" — the metadata block a VBT1
  /// binary artifact embeds verbatim (src/io/columnar/).
  [[nodiscard]] io::Json meta_json(bool include_provenance = true) const;
  /// The JSON document, as io::Json would dump(2) it plus "\n", rendered
  /// straight from the columns.
  [[nodiscard]] std::string to_json_text(bool include_provenance = true) const;
  /// Identity-only serialization — byte-comparable across shard/merge runs
  /// and thread counts.
  [[nodiscard]] std::string canonical_text() const {
    return to_json_text(/*include_provenance=*/false);
  }

  /// RFC-4180-style CSV of the data (header + rows; metadata is JSON-only).
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] static ResultTable from_json(const io::Json& doc);
  [[nodiscard]] static ResultTable from_json_text(std::string_view text);

  /// Serialize to `path` in the given format (kAuto: see
  /// infer_artifact_format). Binary saves carry provenance unless told
  /// otherwise, same as to_json_text. The bytes replace `path` by a
  /// rename (io::write_file_atomic), so a table may be saved over the VBT
  /// file it was loaded from: its mapping keeps the old file's bytes.
  void save(const std::string& path, ArtifactFormat format = ArtifactFormat::kAuto,
            bool include_provenance = true) const;

  /// Read + parse + validate an artifact file in one step, dispatching on
  /// content: files opening with the VBT1 magic are mapped and validated
  /// by the columnar reader, and the table adopts its column blocks
  /// without copying them; anything else parses as JSON — whatever the
  /// extension says. Every failure — unreadable file, malformed JSON,
  /// unknown schema, corrupt binary block, shape violation — is an
  /// io::JsonError naming the path, so batch consumers (report, merge,
  /// campaign) can say exactly which file is bad.
  [[nodiscard]] static ResultTable load(const std::string& path);
};

/// Join shard tables into the exact unsharded table: validates that all
/// shards share one spec/columns/seed and form a complete partition
/// 0..count-1, orders the rows by the "seq" column (which must come out as
/// exactly 0..n-1) and gathers each column in that order. The merged
/// provenance is threads = 0 (mixed) and wall_time_ms = Σ shard wall times.
/// Throws io::JsonError on incompatible, missing, or overlapping shards.
[[nodiscard]] ResultTable merge_result_tables(std::vector<ResultTable> shards);

}  // namespace varbench::study
