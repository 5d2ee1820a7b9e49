#include "src/io/columnar/vbt.h"

#include <cerrno>
#include <cstring>
#include <map>

#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define VARBENCH_HAVE_MMAP 1
#else
#include <cstdio>
#define VARBENCH_HAVE_MMAP 0
#endif

namespace varbench::io::columnar {

namespace {

using study::ResultTable;
using study::Row;

[[noreturn]] void fail(const std::string& path, std::uint64_t offset,
                       const std::string& what) {
  throw JsonError("columnar artifact '" + path + "': " + what +
                  " (byte offset " + std::to_string(offset) + ")");
}

/// Identity-derived span ident for one artifact: hash of the file NAME
/// only (e.g. "s0-0of2.vbt"), never the full path, so traces of the same
/// campaign compare equal across state directories (docs/metrics.md).
std::uint64_t file_span_ident(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string_view::npos) path.remove_prefix(slash + 1);
  return rngx::hash_tag(path);
}

std::size_t element_bytes(ColumnType type) {
  switch (type) {
    case ColumnType::kF64:
    case ColumnType::kI64:
    case ColumnType::kU64:
    case ColumnType::kMixed:
      return 8;
    case ColumnType::kStringDict:
      return 4;
  }
  return 0;
}

// ---------------------------------------------------------------- writer

/// First-appearance string dictionary over every string cell, scanning
/// columns in column order and rows in row order — one deterministic
/// rendering per table.
struct Dictionary {
  std::vector<std::string> strings;
  std::map<std::string, std::uint32_t> index;

  std::uint32_t intern(const std::string& s) {
    const auto it = index.find(s);
    if (it != index.end()) return it->second;
    if (strings.size() >= UINT32_MAX) {
      // varlint: allow(error-names-path) -- encoder capacity limit hit while
      // writing, not reading: there is no input file or offset to name, and
      // the 2^32nd distinct string is not worth echoing.
      throw JsonError("columnar: more than 2^32-1 distinct strings");
    }
    const auto id = static_cast<std::uint32_t>(strings.size());
    strings.push_back(s);
    index.emplace(s, id);
    return id;
  }

  [[nodiscard]] std::uint64_t encoded_bytes() const {
    if (strings.empty()) return 0;
    std::uint64_t bytes = 8 + 4 * static_cast<std::uint64_t>(strings.size());
    for (const auto& s : strings) bytes += s.size();
    return bytes;
  }
};

/// The narrowest lossless encoding for one column of cells.
ColumnType elect_type(const ResultTable& table, std::size_t ci) {
  bool has_double = false;
  bool has_uint = false;       // non-negative integers
  bool has_int = false;        // negative integers
  bool has_wide_uint = false;  // above INT64_MAX — needs u64 storage
  bool has_string = false;
  bool has_other = false;  // null / bool
  for (const Row& row : table.rows) {
    const Json& cell = row[ci];
    switch (cell.type()) {
      case Json::Type::kNumber:
        switch (cell.number_kind()) {
          case Json::NumKind::kDouble:
            has_double = true;
            break;
          case Json::NumKind::kUint:
            has_uint = true;
            has_wide_uint |= cell.as_uint64() >
                             static_cast<std::uint64_t>(INT64_MAX);
            break;
          case Json::NumKind::kInt:
            has_int = true;
            break;
        }
        break;
      case Json::Type::kString:
        has_string = true;
        break;
      default:
        has_other = true;
    }
  }
  const bool has_integer = has_uint || has_int;
  if (has_other || (has_string && (has_double || has_integer)) ||
      (has_double && has_integer) || (has_wide_uint && has_int)) {
    return ColumnType::kMixed;
  }
  if (has_string) return ColumnType::kStringDict;
  if (has_wide_uint) return ColumnType::kU64;
  if (has_integer) return ColumnType::kI64;
  return ColumnType::kF64;  // all doubles — and the empty-table default
}

void put_u64(unsigned char* at, std::uint64_t v) { std::memcpy(at, &v, 8); }
void put_f64(unsigned char* at, double v) { std::memcpy(at, &v, 8); }
void put_i64(unsigned char* at, std::int64_t v) { std::memcpy(at, &v, 8); }
void put_u32(unsigned char* at, std::uint32_t v) { std::memcpy(at, &v, 4); }

}  // namespace

std::string encode_vbt(const ResultTable& table, bool include_provenance) {
  const std::size_t ncols = table.columns.size();
  const std::uint64_t nrows = table.rows.size();
  if (ncols == 0) {
    throw JsonError("columnar: table '" + table.name + "' has no columns");
  }

  std::vector<ColumnType> types(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) types[ci] = elect_type(table, ci);

  // Intern every string cell up front so the dictionary block can be laid
  // out before the column payloads that reference it.
  Dictionary dict;
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    if (types[ci] != ColumnType::kStringDict &&
        types[ci] != ColumnType::kMixed) {
      continue;
    }
    for (const Row& row : table.rows) {
      if (row[ci].is_string()) dict.intern(row[ci].as_string());
    }
  }

  const std::string meta_text = table.meta_json(include_provenance).dump();

  // ---- lay the blocks out (every block 64-byte aligned) ----
  Header h;
  h.header_bytes = sizeof(Header);
  h.row_count = nrows;
  h.column_count = static_cast<std::uint32_t>(ncols);
  std::uint64_t pos = kHeaderEnd;
  h.coldir_offset = align_up(pos);
  pos = h.coldir_offset + sizeof(ColumnEntry) * ncols;
  h.meta_offset = align_up(pos);
  h.meta_bytes = meta_text.size();
  pos = h.meta_offset + h.meta_bytes;
  h.dict_bytes = dict.encoded_bytes();
  if (h.dict_bytes > 0) {
    h.dict_offset = align_up(pos);
    pos = h.dict_offset + h.dict_bytes;
  }
  std::vector<ColumnEntry> entries(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    ColumnEntry& e = entries[ci];
    e.type = static_cast<std::uint32_t>(types[ci]);
    if (types[ci] == ColumnType::kMixed) {
      e.aux_offset = align_up(pos);
      e.aux_bytes = nrows;
      pos = e.aux_offset + e.aux_bytes;
    }
    e.data_offset = align_up(pos);
    e.data_bytes = nrows * element_bytes(types[ci]);
    pos = e.data_offset + e.data_bytes;
  }
  h.file_bytes = pos;

  // ---- fill (gaps between blocks stay zero — deterministic padding) ----
  std::string file(static_cast<std::size_t>(pos), '\0');
  auto* out = reinterpret_cast<unsigned char*>(file.data());
  std::memcpy(out, kMagic, sizeof kMagic);
  std::memcpy(out + 8, &h, sizeof h);
  std::memcpy(out + h.coldir_offset, entries.data(),
              sizeof(ColumnEntry) * ncols);
  std::memcpy(out + h.meta_offset, meta_text.data(), meta_text.size());
  if (h.dict_bytes > 0) {
    unsigned char* at = out + h.dict_offset;
    put_u64(at, dict.strings.size());
    at += 8;
    for (const auto& s : dict.strings) {
      put_u32(at, static_cast<std::uint32_t>(s.size()));
      at += 4;
    }
    for (const auto& s : dict.strings) {
      std::memcpy(at, s.data(), s.size());
      at += s.size();
    }
  }
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    unsigned char* data = out + entries[ci].data_offset;
    unsigned char* tags = out + entries[ci].aux_offset;
    for (std::uint64_t r = 0; r < nrows; ++r) {
      const Json& cell = table.rows[r][ci];
      switch (types[ci]) {
        case ColumnType::kF64:
          put_f64(data + 8 * r, cell.as_double());
          break;
        case ColumnType::kI64:
          put_i64(data + 8 * r, cell.as_int64());
          break;
        case ColumnType::kU64:
          put_u64(data + 8 * r, cell.as_uint64());
          break;
        case ColumnType::kStringDict:
          put_u32(data + 4 * r, dict.index.at(cell.as_string()));
          break;
        case ColumnType::kMixed: {
          CellTag tag = CellTag::kNull;
          std::uint64_t payload = 0;
          switch (cell.type()) {
            case Json::Type::kNull:
              break;
            case Json::Type::kBool:
              tag = cell.as_bool() ? CellTag::kTrue : CellTag::kFalse;
              break;
            case Json::Type::kNumber:
              switch (cell.number_kind()) {
                case Json::NumKind::kDouble: {
                  tag = CellTag::kF64;
                  const double d = cell.as_double();
                  std::memcpy(&payload, &d, 8);
                  break;
                }
                case Json::NumKind::kUint:
                  tag = CellTag::kU64;
                  payload = cell.as_uint64();
                  break;
                case Json::NumKind::kInt: {
                  tag = CellTag::kI64;
                  const std::int64_t i = cell.as_int64();
                  std::memcpy(&payload, &i, 8);
                  break;
                }
              }
              break;
            case Json::Type::kString:
              tag = CellTag::kString;
              payload = dict.index.at(cell.as_string());
              break;
            default:
              throw JsonError("columnar: cells must be scalars, got " +
                              cell.dump() + " at row " + std::to_string(r) +
                              " of column '" + table.columns[ci] + "'");
          }
          tags[r] = static_cast<std::uint8_t>(tag);
          put_u64(data + 8 * r, payload);
          break;
        }
      }
    }
  }
  return file;
}

void write_vbt(const std::string& path, const ResultTable& table,
               bool include_provenance) {
  write_file(path, encode_vbt(table, include_provenance));
}

bool has_vbt_magic(std::span<const unsigned char> data) {
  return data.size() >= sizeof kMagic &&
         std::memcmp(data.data(), kMagic, sizeof kMagic) == 0;
}

// ---------------------------------------------------------------- reader

MappedTable::~MappedTable() {
  if (base_ == nullptr) return;
#if VARBENCH_HAVE_MMAP
  if (mmapped_) {
    ::munmap(const_cast<unsigned char*>(base_), size_);
    return;
  }
#endif
  delete[] base_;
}

std::shared_ptr<const MappedTable> MappedTable::open(const std::string& path) {
  // Like the metrics adds below, spans are load-path provenance on the
  // global sink; the ident hash is only computed when the span is live.
  metrics::Sink& sink = metrics::global_sink();
  const metrics::ScopedSpan map_span{
      sink, metrics::kIoVbtMap,
      sink.is_enabled(metrics::kIoVbtMap) ? file_span_ident(path) : 0};
  std::shared_ptr<MappedTable> t{new MappedTable};
  t->path_ = path;

#if VARBENCH_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw JsonError("cannot open '" + path + "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    const int err = errno;
    ::close(fd);
    throw JsonError("cannot stat '" + path + "': " + std::strerror(err));
  }
  t->size_ = static_cast<std::size_t>(st.st_size);
  if (t->size_ > 0) {
    void* map = ::mmap(nullptr, t->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      throw JsonError("cannot mmap '" + path + "': " + std::strerror(errno));
    }
    t->base_ = static_cast<const unsigned char*>(map);
    t->mmapped_ = true;
  } else {
    ::close(fd);
  }
#else
  // No mmap on this platform: read the whole file into a heap buffer. The
  // span accessors work identically; only the zero-copy property is lost.
  const std::string bytes = read_file(path);
  t->size_ = bytes.size();
  auto* buf = new unsigned char[t->size_ > 0 ? t->size_ : 1];
  std::memcpy(buf, bytes.data(), t->size_);
  t->base_ = buf;
#endif

  const std::string& p = t->path_;
  const unsigned char* base = t->base_;
  const std::size_t size = t->size_;
  if (size < kHeaderEnd) {
    fail(p, 0,
         "truncated — file holds " + std::to_string(size) +
             " byte(s), the magic + header need " +
             std::to_string(kHeaderEnd));
  }
  if (!has_vbt_magic({base, size})) {
    fail(p, 0, "bad magic — not a VBT1 artifact");
  }
  Header h;
  std::memcpy(&h, base + 8, sizeof h);
  if (h.version != kVersion) {
    fail(p, 8,
         "unsupported version " + std::to_string(h.version) +
             " (this build reads version " + std::to_string(kVersion) + ")");
  }
  if (h.header_bytes != sizeof(Header)) {
    fail(p, 12,
         "header size " + std::to_string(h.header_bytes) + " != " +
             std::to_string(sizeof(Header)));
  }
  if (h.flags != 0) {
    fail(p, 28, "reserved header flags must be 0, got " +
                    std::to_string(h.flags));
  }
  if (h.file_bytes != size) {
    fail(p, 72,
         "truncated or oversized — header says " +
             std::to_string(h.file_bytes) + " byte(s), file holds " +
             std::to_string(size));
  }
  if (h.column_count == 0) fail(p, 24, "table has no columns");
  if (h.column_count > (1u << 20)) {
    fail(p, 24, "implausible column count " + std::to_string(h.column_count));
  }
  if (h.row_count > (std::uint64_t{1} << 48)) {
    fail(p, 16, "implausible row count " + std::to_string(h.row_count));
  }
  t->rows_ = static_cast<std::size_t>(h.row_count);

  // Every block must be 64-byte aligned and inside the file, and no two
  // blocks may overlap. Collect the ranges as they are validated, then
  // check disjointness once at the end.
  struct Range {
    std::uint64_t off = 0;
    std::uint64_t bytes = 0;
    std::string label;
  };
  std::vector<Range> ranges;
  const auto check_block = [&](std::uint64_t off, std::uint64_t bytes,
                               const std::string& label) {
    if (bytes == 0) return;
    if (off % kBlockAlign != 0) {
      fail(p, off, label + " block is not 64-byte aligned");
    }
    if (off < kHeaderEnd || off > size || bytes > size - off) {
      fail(p, off,
           label + " block [" + std::to_string(off) + ", " +
               std::to_string(off + bytes) + ") is out of bounds (file holds " +
               std::to_string(size) + " byte(s))");
    }
    ranges.push_back(Range{off, bytes, label});
  };

  const std::uint64_t coldir_bytes =
      sizeof(ColumnEntry) * std::uint64_t{h.column_count};
  check_block(h.coldir_offset, coldir_bytes, "column directory");
  check_block(h.meta_offset, h.meta_bytes, "metadata");
  if (h.meta_bytes == 0) fail(p, h.meta_offset, "metadata block is empty");

  try {
    t->meta_ = Json::parse(std::string_view{
        reinterpret_cast<const char*>(base + h.meta_offset),
        static_cast<std::size_t>(h.meta_bytes)});
  } catch (const JsonError& e) {
    fail(p, h.meta_offset, std::string{"metadata block: "} + e.what());
  }
  const Json* columns = t->meta_.find("columns");
  if (columns == nullptr || !columns->is_array()) {
    fail(p, h.meta_offset, "metadata block has no \"columns\" array");
  }
  for (const Json& c : columns->as_array()) {
    if (!c.is_string()) {
      fail(p, h.meta_offset, "metadata column names must be strings");
    }
    t->names_.push_back(c.as_string());
  }
  if (t->names_.size() != h.column_count) {
    fail(p, h.meta_offset,
         "metadata lists " + std::to_string(t->names_.size()) +
             " column(s) but the header says " +
             std::to_string(h.column_count));
  }

  if (h.dict_offset != 0 || h.dict_bytes != 0) {
    check_block(h.dict_offset, h.dict_bytes, "dictionary");
    if (h.dict_bytes < 8) {
      fail(p, h.dict_offset, "dictionary block too small");
    }
    std::uint64_t count = 0;
    std::memcpy(&count, base + h.dict_offset, 8);
    if (count == 0 || count > (h.dict_bytes - 8) / 4) {
      fail(p, h.dict_offset,
           "dictionary count " + std::to_string(count) +
               " does not fit its block of " + std::to_string(h.dict_bytes) +
               " byte(s)");
    }
    std::uint64_t total = 8 + 4 * count;
    const unsigned char* lengths = base + h.dict_offset + 8;
    std::vector<std::uint32_t> lens(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      std::memcpy(&lens[i], lengths + 4 * i, 4);
      total += lens[i];
    }
    if (total != h.dict_bytes) {
      fail(p, h.dict_offset,
           "dictionary strings cover " + std::to_string(total) +
               " byte(s) but the block holds " + std::to_string(h.dict_bytes));
    }
    const char* bytes = reinterpret_cast<const char*>(lengths + 4 * count);
    t->dict_.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      t->dict_.emplace_back(bytes, lens[i]);
      bytes += lens[i];
    }
  }

  t->columns_.resize(h.column_count);
  for (std::uint32_t ci = 0; ci < h.column_count; ++ci) {
    const std::uint64_t entry_off = h.coldir_offset + sizeof(ColumnEntry) * ci;
    ColumnEntry e;
    std::memcpy(&e, base + entry_off, sizeof e);
    const std::string label =
        "column " + std::to_string(ci) + " '" + t->names_[ci] + "'";
    if (e.type > static_cast<std::uint32_t>(ColumnType::kMixed)) {
      fail(p, entry_off, label + " has unknown type " + std::to_string(e.type));
    }
    if (e.reserved != 0) {
      fail(p, entry_off, label + " has nonzero reserved field");
    }
    const auto type = static_cast<ColumnType>(e.type);
    const std::uint64_t want = h.row_count * element_bytes(type);
    if (e.data_bytes != want) {
      fail(p, entry_off,
           label + " data block holds " + std::to_string(e.data_bytes) +
               " byte(s), want " + std::to_string(want) + " for " +
               std::to_string(h.row_count) + " row(s)");
    }
    check_block(e.data_offset, e.data_bytes, label + " data");
    if (type == ColumnType::kMixed) {
      if (e.aux_bytes != h.row_count) {
        fail(p, entry_off,
             label + " tag block holds " + std::to_string(e.aux_bytes) +
                 " byte(s), want one tag per row (" +
                 std::to_string(h.row_count) + ")");
      }
      check_block(e.aux_offset, e.aux_bytes, label + " tags");
    } else if (e.aux_offset != 0 || e.aux_bytes != 0) {
      fail(p, entry_off, label + " carries an aux block but is not mixed");
    }
    Column& col = t->columns_[ci];
    col.type = type;
    col.data = base + e.data_offset;
    col.aux = type == ColumnType::kMixed ? base + e.aux_offset : nullptr;

    // Per-cell structural validation: dictionary references must resolve
    // and mixed tags must be known. A linear scan over small integer
    // arrays — no io::Json is materialized.
    if (type == ColumnType::kStringDict) {
      for (std::uint64_t r = 0; r < h.row_count; ++r) {
        std::uint32_t idx = 0;
        std::memcpy(&idx, col.data + 4 * r, 4);
        if (idx >= t->dict_.size()) {
          fail(p, e.data_offset + 4 * r,
               label + " row " + std::to_string(r) + ": string-dict index " +
                   std::to_string(idx) + " out of range (dictionary holds " +
                   std::to_string(t->dict_.size()) + ")");
        }
      }
    } else if (type == ColumnType::kMixed) {
      for (std::uint64_t r = 0; r < h.row_count; ++r) {
        const std::uint8_t tag = col.aux[r];
        if (tag > static_cast<std::uint8_t>(CellTag::kString)) {
          fail(p, e.aux_offset + r,
               label + " row " + std::to_string(r) + ": unknown cell tag " +
                   std::to_string(tag));
        }
        if (tag == static_cast<std::uint8_t>(CellTag::kString)) {
          std::uint64_t idx = 0;
          std::memcpy(&idx, col.data + 8 * r, 8);
          if (idx >= t->dict_.size()) {
            fail(p, e.data_offset + 8 * r,
                 label + " row " + std::to_string(r) + ": string-dict index " +
                     std::to_string(idx) + " out of range (dictionary holds " +
                     std::to_string(t->dict_.size()) + ")");
          }
        }
      }
    }
  }

  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.off < b.off; });
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    const Range& prev = ranges[i - 1];
    const Range& cur = ranges[i];
    if (prev.off + prev.bytes > cur.off) {
      fail(p, cur.off,
           cur.label + " block [" + std::to_string(cur.off) + ", " +
               std::to_string(cur.off + cur.bytes) + ") overlaps " +
               prev.label + " block [" + std::to_string(prev.off) + ", " +
               std::to_string(prev.off + prev.bytes) + ")");
    }
  }

  // Load-path telemetry only (docs/metrics.md): never feeds artifact
  // bytes. The global sink is the right scope — artifact loads happen on
  // paths (report, merge) with no ExecContext in reach.
  sink.add(metrics::kIoTablesMapped);
  sink.add(metrics::kIoBytesMapped, t->size_);
  return t;
}

ColumnType MappedTable::column_type(std::size_t ci) const {
  return columns_.at(ci).type;
}

const MappedTable::Column& MappedTable::column_at(std::size_t ci,
                                                  ColumnType wanted) const {
  const Column& col = columns_.at(ci);
  if (col.type != wanted) {
    throw JsonError("columnar artifact '" + path_ + "': column " +
                    std::to_string(ci) + " '" + names_[ci] +
                    "' is not of the requested type");
  }
  return col;
}

std::span<const double> MappedTable::f64_column(std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kF64);
  return {reinterpret_cast<const double*>(col.data), rows_};
}

std::span<const std::int64_t> MappedTable::i64_column(std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kI64);
  return {reinterpret_cast<const std::int64_t*>(col.data), rows_};
}

std::span<const std::uint64_t> MappedTable::u64_column(std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kU64);
  return {reinterpret_cast<const std::uint64_t*>(col.data), rows_};
}

std::span<const std::uint32_t> MappedTable::dict_indices(
    std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kStringDict);
  return {reinterpret_cast<const std::uint32_t*>(col.data), rows_};
}

std::span<const std::uint8_t> MappedTable::mixed_tags(std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kMixed);
  return {reinterpret_cast<const std::uint8_t*>(col.aux), rows_};
}

std::span<const std::uint64_t> MappedTable::mixed_payload(
    std::size_t ci) const {
  const Column& col = column_at(ci, ColumnType::kMixed);
  return {reinterpret_cast<const std::uint64_t*>(col.data), rows_};
}

Json MappedTable::cell(std::size_t row, std::size_t ci) const {
  const Column& col = columns_.at(ci);
  switch (col.type) {
    case ColumnType::kF64: {
      double d = 0.0;
      std::memcpy(&d, col.data + 8 * row, 8);
      return Json{d};
    }
    case ColumnType::kI64: {
      std::int64_t i = 0;
      std::memcpy(&i, col.data + 8 * row, 8);
      return Json{i};  // non-negative reads back as the unsigned kind
    }
    case ColumnType::kU64: {
      std::uint64_t u = 0;
      std::memcpy(&u, col.data + 8 * row, 8);
      return Json{u};
    }
    case ColumnType::kStringDict: {
      std::uint32_t idx = 0;
      std::memcpy(&idx, col.data + 4 * row, 4);
      return Json{dict_[idx]};
    }
    case ColumnType::kMixed: {
      std::uint64_t payload = 0;
      std::memcpy(&payload, col.data + 8 * row, 8);
      switch (static_cast<CellTag>(col.aux[row])) {
        case CellTag::kNull:
          return Json{};
        case CellTag::kFalse:
          return Json{false};
        case CellTag::kTrue:
          return Json{true};
        case CellTag::kF64: {
          double d = 0.0;
          std::memcpy(&d, &payload, 8);
          return Json{d};
        }
        case CellTag::kU64:
          return Json{payload};
        case CellTag::kI64: {
          std::int64_t i = 0;
          std::memcpy(&i, &payload, 8);
          return Json{i};
        }
        case CellTag::kString:
          return Json{dict_[static_cast<std::size_t>(payload)]};
      }
      return Json{};
    }
  }
  return Json{};
}

// ----------------------------------------------------------- materialize

study::ResultTable materialize(std::shared_ptr<const MappedTable> mapped) {
  metrics::Sink& sink = metrics::global_sink();
  const metrics::ScopedSpan materialize_span{
      sink, metrics::kIoVbtMaterialize,
      sink.is_enabled(metrics::kIoVbtMaterialize)
          ? file_span_ident(mapped->path())
          : 0,
      metrics::kIoMaterializeNs};
  // Metadata rides the exact JSON document to_json writes (minus "rows"),
  // so the JSON reader's validation — schema, spec round-trip, shard
  // sanity — applies unchanged; the rows are then decoded column-wise.
  Json doc = mapped->metadata();
  doc.set("rows", Json::array());
  study::ResultTable table;
  try {
    table = study::ResultTable::from_json(doc);
  } catch (const JsonError& e) {
    throw JsonError("columnar artifact '" + mapped->path() +
                    "': metadata: " + e.what());
  }
  const std::size_t ncols = mapped->num_columns();
  const std::size_t nrows = mapped->num_rows();
  // Row-major decode (rows are row vectors, so this is the allocation
  // order) with the per-column type dispatch hoisted out of the cell loop.
  struct Decode {
    ColumnType type;
    const double* f64 = nullptr;
    const std::int64_t* i64 = nullptr;
    const std::uint64_t* u64 = nullptr;
    const std::uint32_t* dict_idx = nullptr;
  };
  std::vector<Decode> cols(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    cols[ci].type = mapped->column_type(ci);
    switch (cols[ci].type) {
      case ColumnType::kF64:
        cols[ci].f64 = mapped->f64_column(ci).data();
        break;
      case ColumnType::kI64:
        cols[ci].i64 = mapped->i64_column(ci).data();
        break;
      case ColumnType::kU64:
        cols[ci].u64 = mapped->u64_column(ci).data();
        break;
      case ColumnType::kStringDict:
        cols[ci].dict_idx = mapped->dict_indices(ci).data();
        break;
      case ColumnType::kMixed:
        break;  // rare; decoded through the per-cell primitive below
    }
  }
  const auto& dict = mapped->dictionary();
  table.rows.reserve(nrows);
  for (std::size_t r = 0; r < nrows; ++r) {
    Row row;
    row.reserve(ncols);
    for (std::size_t ci = 0; ci < ncols; ++ci) {
      const Decode& c = cols[ci];
      switch (c.type) {
        case ColumnType::kF64:
          row.emplace_back(c.f64[r]);
          break;
        case ColumnType::kI64:
          // Non-negative values read back as the unsigned kind (the Json
          // constructor routes on sign), restoring the exact JSON kind.
          row.emplace_back(c.i64[r]);
          break;
        case ColumnType::kU64:
          row.emplace_back(c.u64[r]);
          break;
        case ColumnType::kStringDict:
          row.emplace_back(dict[c.dict_idx[r]]);
          break;
        case ColumnType::kMixed:
          row.push_back(mapped->cell(r, ci));
          break;
      }
    }
    table.rows.push_back(std::move(row));
  }
  table.backing = std::move(mapped);
  return table;
}

}  // namespace varbench::io::columnar
