#include "src/io/columnar/vbt.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

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

void put_u64(unsigned char* at, std::uint64_t v) { std::memcpy(at, &v, 8); }
void put_u32(unsigned char* at, std::uint32_t v) { std::memcpy(at, &v, 4); }

}  // namespace

std::string duplicate_column_error(const std::vector<std::string>& names) {
  std::unordered_map<std::string_view, std::size_t> first;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto [it, fresh] = first.emplace(names[i], i);
    if (!fresh) {
      return "duplicate column name '" + names[i] + "' (columns " +
             std::to_string(it->second) + " and " + std::to_string(i) + ")";
    }
  }
  return "";
}

std::string encode_vbt(const ResultTable& table, bool include_provenance) {
  const std::size_t ncols = table.columns.size();
  const study::Rows& rows = table.rows;
  const std::uint64_t nrows = rows.size();
  if (ncols == 0) {
    throw JsonError("columnar: table '" + table.name + "' has no columns");
  }
  if (const std::string dup = duplicate_column_error(table.columns);
      !dup.empty()) {
    throw JsonError("columnar: table '" + table.name + "': " + dup);
  }

  // The table stores each column in the encoding the writer elects, so
  // the types are read off, not recomputed.
  std::vector<ColumnType> types(ncols);
  for (std::size_t ci = 0; ci < ncols; ++ci) types[ci] = rows.column_type(ci);

  // The file dictionary: the strings cells use, in first-appearance order
  // over columns in order and rows in order, whatever order the table
  // interned them in. `remap` takes a table code to its file index.
  const std::vector<std::string>& strings = rows.dictionary();
  constexpr std::uint32_t kUnused = UINT32_MAX;
  std::vector<std::uint32_t> remap(strings.size(), kUnused);
  std::vector<std::uint32_t> order;  // table codes, in file order
  std::unordered_map<std::string_view, std::uint32_t> file_index;
  const auto use = [&](std::uint64_t code) {
    if (remap[code] != kUnused) return;
    const auto [it, fresh] = file_index.emplace(
        strings[code], static_cast<std::uint32_t>(order.size()));
    if (fresh) order.push_back(static_cast<std::uint32_t>(code));
    remap[code] = it->second;
  };
  for (std::size_t ci = 0; ci < ncols; ++ci) {
    if (types[ci] == ColumnType::kStringDict) {
      for (const std::uint32_t code : rows.dict_codes(ci)) use(code);
    } else if (types[ci] == ColumnType::kMixed) {
      const auto tags = rows.mixed_tags(ci);
      const auto payloads = rows.mixed_payloads(ci);
      for (std::uint64_t r = 0; r < nrows; ++r) {
        if (tags[r] == static_cast<std::uint8_t>(CellTag::kString)) {
          use(payloads[r]);
        }
      }
    }
  }
  std::uint64_t dict_bytes = 0;
  if (!order.empty()) {
    dict_bytes = 8 + 4 * static_cast<std::uint64_t>(order.size());
    for (const std::uint32_t code : order) dict_bytes += strings[code].size();
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
  h.dict_bytes = dict_bytes;
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
    put_u64(at, order.size());
    at += 8;
    for (const std::uint32_t code : order) {
      put_u32(at, static_cast<std::uint32_t>(strings[code].size()));
      at += 4;
    }
    for (const std::uint32_t code : order) {
      std::memcpy(at, strings[code].data(), strings[code].size());
      at += strings[code].size();
    }
  }
  for (std::size_t ci = 0; nrows > 0 && ci < ncols; ++ci) {
    unsigned char* data = out + entries[ci].data_offset;
    switch (types[ci]) {
      case ColumnType::kF64:
        std::memcpy(data, rows.f64_column(ci).data(), 8 * nrows);
        break;
      case ColumnType::kI64:
        std::memcpy(data, rows.i64_column(ci).data(), 8 * nrows);
        break;
      case ColumnType::kU64:
        std::memcpy(data, rows.u64_column(ci).data(), 8 * nrows);
        break;
      case ColumnType::kStringDict: {
        const auto codes = rows.dict_codes(ci);
        for (std::uint64_t r = 0; r < nrows; ++r) {
          put_u32(data + 4 * r, remap[codes[r]]);
        }
        break;
      }
      case ColumnType::kMixed: {
        const auto tags = rows.mixed_tags(ci);
        const auto payloads = rows.mixed_payloads(ci);
        std::memcpy(out + entries[ci].aux_offset, tags.data(), nrows);
        for (std::uint64_t r = 0; r < nrows; ++r) {
          put_u64(data + 8 * r,
                  tags[r] == static_cast<std::uint8_t>(CellTag::kString)
                      ? remap[payloads[r]]
                      : payloads[r]);
        }
        break;
      }
    }
  }
  return file;
}

void write_vbt(const std::string& path, const ResultTable& table,
               bool include_provenance) {
  write_file_atomic(path, encode_vbt(table, include_provenance));
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
  if (const std::string dup = duplicate_column_error(t->names_);
      !dup.empty()) {
    fail(p, h.meta_offset, "metadata block: " + dup);
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

const unsigned char* MappedTable::column_data(std::size_t ci) const {
  return columns_.at(ci).data;
}

const unsigned char* MappedTable::column_tags(std::size_t ci) const {
  return columns_.at(ci).aux;
}

}  // namespace varbench::io::columnar
