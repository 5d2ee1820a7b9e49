// VBT1 binary columnar artifacts: a deterministic writer and an
// mmap-backed zero-copy reader for study::ResultTable (docs/artifacts.md).
//
// The writer (`encode_vbt`) is lossless against the JSON artifact: for any
// table, loading the encoded bytes back (`ResultTable::load`) reproduces
// `canonical_text()` byte for byte, because the metadata block *is* the
// canonical JSON document minus its "rows" and the column blocks preserve
// every cell's exact value and JSON number kind. A ResultTable already
// stores its cells in these encodings, so the writer copies blocks.
//
// The reader maps the file read-only and validates the whole block layout
// up front (magic, version, bounds, 64-byte alignment, overlap, dictionary
// indices, mixed-cell tags, distinct column names) — every failure is an
// io::JsonError naming the path and the byte offset of the offending
// structure. After open(), every column block is readable straight off
// the mapping: no parsing, no io::Json cells, no copies — and a loaded
// ResultTable adopts those blocks as its columns.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/io/columnar/format.h"
#include "src/io/json.h"

namespace varbench::study {
class ResultTable;
}  // namespace varbench::study

namespace varbench::io::columnar {

/// Serialize `table` to VBT1 bytes. `include_provenance` mirrors
/// ResultTable::to_json: identity-only bytes (false) are the canonical,
/// byte-comparable form merged artifacts are written in.
[[nodiscard]] std::string encode_vbt(const study::ResultTable& table,
                                     bool include_provenance = true);

/// encode_vbt + io::write_file_atomic.
void write_vbt(const std::string& path, const study::ResultTable& table,
               bool include_provenance = true);

/// True when the first bytes of `data` carry the VBT1 magic — the sniff
/// ResultTable::load uses to dispatch between JSON and binary.
[[nodiscard]] bool has_vbt_magic(std::span<const unsigned char> data);

/// "" when every column name is distinct, else "duplicate column name 'x'
/// (columns i and j)" for the first repeat — the one rule the JSON reader,
/// the VBT reader and the writers share.
[[nodiscard]] std::string duplicate_column_error(
    const std::vector<std::string>& names);

/// A validated, read-only view of a VBT1 file. The file stays mapped (or
/// buffered, on platforms without mmap) for the lifetime of the object;
/// spans returned by the accessors point into that mapping and share its
/// lifetime — a ResultTable loaded from the file holds it for them.
class MappedTable {
 public:
  /// Map + validate. Throws io::JsonError naming `path` and a byte offset
  /// on any structural defect (bad magic, unsupported version, truncation,
  /// misaligned or overlapping blocks, dangling dictionary index, unknown
  /// mixed-cell tag, metadata that is not a valid artifact document, a
  /// repeated column name).
  [[nodiscard]] static std::shared_ptr<const MappedTable> open(
      const std::string& path);

  ~MappedTable();
  MappedTable(const MappedTable&) = delete;
  MappedTable& operator=(const MappedTable&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t num_rows() const { return rows_; }
  [[nodiscard]] std::size_t num_columns() const { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& column_names() const {
    return names_;
  }
  [[nodiscard]] ColumnType column_type(std::size_t ci) const;

  /// The artifact metadata document (canonical JSON minus "rows"):
  /// schema, name, optional spec, meta.seed/shard, optional provenance.
  [[nodiscard]] const Json& metadata() const { return meta_; }

  /// Column ci's payload block (8 bytes per cell; 4 for kStringDict) and,
  /// for kMixed, its tag block (nullptr otherwise): zero-copy pointers
  /// into the mapping, laid out as column_type(ci) says. A loaded
  /// ResultTable adopts them as its columns.
  [[nodiscard]] const unsigned char* column_data(std::size_t ci) const;
  [[nodiscard]] const unsigned char* column_tags(std::size_t ci) const;

  /// The file dictionary (empty when no column stores strings).
  [[nodiscard]] const std::vector<std::string>& dictionary() const {
    return dict_;
  }

 private:
  MappedTable() = default;

  struct Column {
    ColumnType type = ColumnType::kF64;
    const unsigned char* data = nullptr;
    const unsigned char* aux = nullptr;  // kMixed tags
  };

  std::string path_;
  const unsigned char* base_ = nullptr;  // mapping (or fallback buffer)
  std::size_t size_ = 0;
  bool mmapped_ = false;
  std::size_t rows_ = 0;
  Json meta_;
  std::vector<std::string> names_;
  std::vector<std::string> dict_;
  std::vector<Column> columns_;
};

}  // namespace varbench::io::columnar
