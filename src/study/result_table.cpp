#include "src/study/result_table.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "src/io/columnar/vbt.h"
#include "src/io/csv.h"
#include "src/io/spec_reader.h"

namespace varbench::study {

namespace {

using io::columnar::ColumnType;
using Tag = CellView::Tag;

// Schema evolution (docs/study_api.md): writers emit v1, the lowest schema
// every deployed reader understands; readers accept v1 (as always) and the
// reserved-forward v2, whose contract is *strict tolerance* — the same
// layout, but any field this build does not know is rejected with a
// message naming the offending JSON path instead of being silently
// dropped. A v3 (or unknown) schema stays a hard "unsupported schema"
// error listing both readable versions.
constexpr std::string_view kTableSchema = "varbench.result_table.v1";
constexpr std::string_view kTableSchemaV2 = "varbench.result_table.v2";

/// v2 strictness: every key of `obj` must be known; violations name the
/// JSON path ("$.meta.frobnicate") via the shared io:: helper.
void reject_unknown_fields(const io::Json& obj, std::string_view path,
                           std::initializer_list<std::string_view> known) {
  io::reject_unknown_fields(obj, "result table", kTableSchemaV2, path,
                            known);
}

void require_distinct_columns(const std::vector<std::string>& columns) {
  const std::string dup = io::columnar::duplicate_column_error(columns);
  if (!dup.empty()) throw io::JsonError("result table: " + dup);
}

/// A scalar io::Json as the store keeps it: a cell tag and its payload
/// bits (strings are interned by the caller).
Tag tag_of(const Cell& cell, std::uint64_t& payload) {
  payload = 0;
  switch (cell.type()) {
    case io::Json::Type::kNull:
      return Tag::kNull;
    case io::Json::Type::kBool:
      return cell.as_bool() ? Tag::kTrue : Tag::kFalse;
    case io::Json::Type::kNumber:
      switch (cell.number_kind()) {
        case io::Json::NumKind::kDouble:
          payload = std::bit_cast<std::uint64_t>(cell.as_double());
          return Tag::kF64;
        case io::Json::NumKind::kUint:
          payload = cell.as_uint64();
          return Tag::kU64;
        case io::Json::NumKind::kInt:
          payload = std::bit_cast<std::uint64_t>(cell.as_int64());
          return Tag::kI64;
      }
      break;
    case io::Json::Type::kString:
      return Tag::kString;
    default:
      break;
  }
  throw io::JsonError("result table: cells must be scalars, got " +
                      std::string{io::to_string(cell.type())});
}

template <typename T>
T load_at(const unsigned char* base, std::size_t r) {
  T v;
  std::memcpy(&v, base + sizeof(T) * r, sizeof(T));
  return v;
}

/// Content sniff for load(): does the file open with the VBT1 magic?
/// Unreadable files answer false so the JSON path reports the I/O error.
bool file_has_vbt_magic(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  unsigned char buf[8];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  return io::columnar::has_vbt_magic({buf, n});
}

}  // namespace

ArtifactFormat infer_artifact_format(std::string_view path) {
  if (path.ends_with(".part")) path.remove_suffix(5);
  return path.ends_with(".vbt") ? ArtifactFormat::kBinary
                                : ArtifactFormat::kJson;
}

// ------------------------------------------------------------- CellView

io::Json::Type CellView::type() const {
  switch (tag_) {
    case Tag::kNull:
      return io::Json::Type::kNull;
    case Tag::kFalse:
    case Tag::kTrue:
      return io::Json::Type::kBool;
    case Tag::kString:
      return io::Json::Type::kString;
    default:
      return io::Json::Type::kNumber;
  }
}

// The fast paths read the payload; every other case defers to the equal
// io::Json, so conversions and error texts are io::Json's own.
io::Json::NumKind CellView::number_kind() const {
  switch (tag_) {
    case Tag::kF64:
      return io::Json::NumKind::kDouble;
    case Tag::kU64:
      return io::Json::NumKind::kUint;
    case Tag::kI64:
      return io::Json::NumKind::kInt;
    default:
      return to_json().number_kind();
  }
}

bool CellView::as_bool() const {
  if (is_bool()) return tag_ == Tag::kTrue;
  return to_json().as_bool();
}

double CellView::as_double() const {
  switch (tag_) {
    case Tag::kF64:
      return std::bit_cast<double>(payload_);
    case Tag::kU64:
      return static_cast<double>(payload_);
    case Tag::kI64:
      return static_cast<double>(std::bit_cast<std::int64_t>(payload_));
    default:
      return to_json().as_double();
  }
}

std::uint64_t CellView::as_uint64() const {
  if (tag_ == Tag::kU64) return payload_;
  return to_json().as_uint64();
}

std::int64_t CellView::as_int64() const {
  if (tag_ == Tag::kI64 ||
      (tag_ == Tag::kU64 && payload_ <= static_cast<std::uint64_t>(INT64_MAX))) {
    return std::bit_cast<std::int64_t>(payload_);
  }
  return to_json().as_int64();
}

const std::string& CellView::as_string() const {
  if (tag_ != Tag::kString) (void)to_json().as_string();  // throws
  return *str_;
}

io::Json CellView::to_json() const {
  switch (tag_) {
    case Tag::kNull:
      return io::Json{};
    case Tag::kFalse:
      return io::Json{false};
    case Tag::kTrue:
      return io::Json{true};
    case Tag::kF64:
      return io::Json{std::bit_cast<double>(payload_)};
    case Tag::kU64:
      return io::Json{payload_};
    case Tag::kI64:
      return io::Json{std::bit_cast<std::int64_t>(payload_)};
    case Tag::kString:
      return io::Json{*str_};
  }
  return io::Json{};
}

void CellView::dump_to(std::string& out) const {
  char buf[24];
  switch (tag_) {
    case Tag::kNull:
      out += "null";
      return;
    case Tag::kFalse:
      out += "false";
      return;
    case Tag::kTrue:
      out += "true";
      return;
    case Tag::kF64:
      io::dump_double(out, std::bit_cast<double>(payload_));
      return;
    case Tag::kU64:
      out.append(buf, std::to_chars(buf, buf + sizeof buf, payload_).ptr);
      return;
    case Tag::kI64:
      out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                    std::bit_cast<std::int64_t>(payload_))
                          .ptr);
      return;
    case Tag::kString:
      io::dump_string(out, *str_);
      return;
  }
}

std::string CellView::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

bool operator==(const CellView& a, const CellView& b) {
  if (a.type() != b.type()) return false;
  if (a.is_string()) return *a.str_ == *b.str_;
  if (!a.is_number() || a.tag_ != b.tag_) {
    // null == null, bools by value, numbers of two kinds by value.
    return a.is_number() ? a.as_double() == b.as_double() : a.tag_ == b.tag_;
  }
  return a.tag_ == Tag::kF64 ? a.as_double() == b.as_double()
                             : a.payload_ == b.payload_;
}

// -------------------------------------------------------- RowView / Rows

CellView RowView::operator[](std::size_t c) const { return rows_->cell(r_, c); }

std::size_t RowView::size() const { return rows_->num_columns(); }

Row RowView::to_row() const {
  Row row;
  row.reserve(size());
  for (std::size_t c = 0; c < size(); ++c) row.push_back((*this)[c].to_json());
  return row;
}

Rows::Kinds& Rows::Kinds::operator|=(const Kinds& o) {
  dbl |= o.dbl;
  nonneg |= o.nonneg;
  neg |= o.neg;
  wide |= o.wide;
  str |= o.str;
  other |= o.other;
  return *this;
}

void Rows::Kinds::see(Tag tag, std::uint64_t payload) {
  switch (tag) {
    case Tag::kF64:
      dbl = true;
      break;
    case Tag::kU64:
      nonneg = true;
      wide |= payload > static_cast<std::uint64_t>(INT64_MAX);
      break;
    case Tag::kI64:
      neg = true;
      break;
    case Tag::kString:
      str = true;
      break;
    default:
      other = true;
  }
}

/// The narrowest lossless encoding for the kinds seen: the VBT1 election.
ColumnType Rows::Kinds::elect() const {
  const bool integer = nonneg || neg;
  if (other || (str && (dbl || integer)) || (dbl && integer) ||
      (wide && neg)) {
    return ColumnType::kMixed;
  }
  if (str) return ColumnType::kStringDict;
  if (wide) return ColumnType::kU64;
  if (integer) return ColumnType::kI64;
  return ColumnType::kF64;  // all doubles — and the no-cell default
}

const unsigned char* Rows::payload_bytes(const Column& col) const {
  if (col.mapped != nullptr) return col.mapped;
  return col.type == ColumnType::kStringDict
             ? reinterpret_cast<const unsigned char*>(col.codes.data())
             : reinterpret_cast<const unsigned char*>(col.words.data());
}

CellView Rows::cell(std::size_t r, std::size_t c) const {
  const Column& col = cols_[c];
  const unsigned char* data = payload_bytes(col);
  switch (col.type) {
    case ColumnType::kF64:
      return {Tag::kF64, load_at<std::uint64_t>(data, r), nullptr};
    case ColumnType::kI64: {
      const auto v = load_at<std::uint64_t>(data, r);
      // The JSON number kind is recovered from the sign.
      return {std::bit_cast<std::int64_t>(v) < 0 ? Tag::kI64 : Tag::kU64, v,
              nullptr};
    }
    case ColumnType::kU64:
      return {Tag::kU64, load_at<std::uint64_t>(data, r), nullptr};
    case ColumnType::kStringDict: {
      const auto code = load_at<std::uint32_t>(data, r);
      return {Tag::kString, code, &dictionary()[code]};
    }
    case ColumnType::kMixed: {
      auto tag = static_cast<Tag>(
          col.mapped_tags != nullptr ? col.mapped_tags[r] : col.tags[r]);
      auto payload = load_at<std::uint64_t>(data, r);
      // The cell as io::Json carries it: a non-negative integer is
      // unsigned, and null and bools have no payload. Only a hand-written
      // file stores them otherwise.
      if (tag == Tag::kI64 && std::bit_cast<std::int64_t>(payload) >= 0) {
        tag = Tag::kU64;
      } else if (tag == Tag::kNull || tag == Tag::kFalse ||
                 tag == Tag::kTrue) {
        payload = 0;
      }
      return {tag, payload,
              tag == Tag::kString ? &dictionary()[payload] : nullptr};
    }
  }
  return {Tag::kNull, 0, nullptr};
}

RowView Rows::at(std::size_t r) const {
  if (r >= nrows_) {
    throw std::out_of_range("result table: row " + std::to_string(r) +
                            " of " + std::to_string(nrows_));
  }
  return {this, r};
}

ColumnType Rows::column_type(std::size_t c) const {
  return c < cols_.size() ? cols_[c].type : ColumnType::kF64;
}

const Rows::Column& Rows::typed(std::size_t c, ColumnType want) const {
  static const Column kNoCells;  // any column of a table with no rows
  if (c >= cols_.size() && nrows_ == 0 && want == ColumnType::kF64) {
    return kNoCells;
  }
  if (c >= cols_.size() || cols_[c].type != want) {
    throw io::JsonError("result table: column " + std::to_string(c) +
                        " is not of the requested type");
  }
  return cols_[c];
}

std::span<const double> Rows::f64_column(std::size_t c) const {
  return {reinterpret_cast<const double*>(
              payload_bytes(typed(c, ColumnType::kF64))),
          nrows_};
}

std::span<const std::int64_t> Rows::i64_column(std::size_t c) const {
  return {reinterpret_cast<const std::int64_t*>(
              payload_bytes(typed(c, ColumnType::kI64))),
          nrows_};
}

std::span<const std::uint64_t> Rows::u64_column(std::size_t c) const {
  return {reinterpret_cast<const std::uint64_t*>(
              payload_bytes(typed(c, ColumnType::kU64))),
          nrows_};
}

std::span<const std::uint32_t> Rows::dict_codes(std::size_t c) const {
  return {reinterpret_cast<const std::uint32_t*>(
              payload_bytes(typed(c, ColumnType::kStringDict))),
          nrows_};
}

std::span<const std::uint8_t> Rows::mixed_tags(std::size_t c) const {
  const Column& col = typed(c, ColumnType::kMixed);
  return {col.mapped_tags != nullptr ? col.mapped_tags : col.tags.data(),
          nrows_};
}

std::span<const std::uint64_t> Rows::mixed_payloads(std::size_t c) const {
  return {reinterpret_cast<const std::uint64_t*>(
              payload_bytes(typed(c, ColumnType::kMixed))),
          nrows_};
}

const std::vector<std::string>& Rows::dictionary() const {
  return mapping_ != nullptr ? mapping_->dictionary() : dict_;
}

bool operator==(const Rows& a, const Rows& b) {
  if (a.nrows_ != b.nrows_) return false;
  if (a.nrows_ == 0) return true;
  if (a.cols_.size() != b.cols_.size()) return false;
  for (std::size_t c = 0; c < a.cols_.size(); ++c) {
    for (std::size_t r = 0; r < a.nrows_; ++r) {
      if (!(a.cell(r, c) == b.cell(r, c))) return false;
    }
  }
  return true;
}

void Rows::init(std::size_t ncols) {
  cols_.assign(ncols, Column{});
  nrows_ = 0;
}

void Rows::adopt(std::shared_ptr<const io::columnar::MappedTable> mapped) {
  nrows_ = mapped->num_rows();
  cols_.assign(mapped->num_columns(), Column{});
  dict_.clear();
  index_.clear();
  mapping_ = std::move(mapped);
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    Column& col = cols_[c];
    col.type = mapping_->column_type(c);
    col.mapped = mapping_->column_data(c);
    col.mapped_tags = mapping_->column_tags(c);
    // f64 and string-dict blocks hold one kind by definition; the other
    // encodings are scanned for the kinds they hold.
    bool as_stored = true;  // no cell was normalized by cell()
    if (nrows_ > 0 && col.type == ColumnType::kF64) {
      col.kinds.dbl = true;
    } else if (nrows_ > 0 && col.type == ColumnType::kStringDict) {
      col.kinds.str = true;
    } else {
      for (std::size_t r = 0; r < nrows_; ++r) {
        const CellView v = cell(r, c);
        col.kinds.see(v.tag(), v.payload());
        if (col.type == ColumnType::kMixed &&
            (static_cast<std::uint8_t>(v.tag()) != col.mapped_tags[r] ||
             v.payload() != load_at<std::uint64_t>(col.mapped, r))) {
          as_stored = false;
        }
      }
    }
    // Only a hand-written file stores a column in another encoding than
    // the writer elects for its cells, or a mixed cell in another form
    // than the writer's; re-encode those in memory.
    if (!as_stored || col.kinds.elect() != col.type) {
      retype(c, col.kinds.elect());
    }
  }
}

void Rows::retype(std::size_t c, ColumnType type) {
  Column& col = cols_[c];
  std::vector<std::uint8_t> tags(nrows_);
  std::vector<std::uint64_t> words(nrows_);
  for (std::size_t r = 0; r < nrows_; ++r) {
    const CellView v = cell(r, c);
    tags[r] = static_cast<std::uint8_t>(v.tag());
    words[r] = v.payload();
  }
  col.type = type;
  col.mapped = nullptr;
  col.mapped_tags = nullptr;
  col.tags.clear();
  col.codes.clear();
  if (type == ColumnType::kMixed) col.tags = std::move(tags);
  if (type == ColumnType::kStringDict) {
    col.codes.assign(words.begin(), words.end());
    words.clear();
  }
  col.words = std::move(words);
}

void Rows::detach() {
  if (mapping_ == nullptr) return;
  for (Column& col : cols_) {
    if (col.mapped == nullptr) continue;
    if (col.type == ColumnType::kStringDict) {
      const auto* codes = reinterpret_cast<const std::uint32_t*>(col.mapped);
      col.codes.assign(codes, codes + nrows_);
    } else {
      const auto* words = reinterpret_cast<const std::uint64_t*>(col.mapped);
      col.words.assign(words, words + nrows_);
    }
    if (col.mapped_tags != nullptr) {
      col.tags.assign(col.mapped_tags, col.mapped_tags + nrows_);
    }
    col.mapped = nullptr;
    col.mapped_tags = nullptr;
  }
  dict_ = mapping_->dictionary();
  for (std::size_t i = 0; i < dict_.size(); ++i) {
    index_.emplace(dict_[i], static_cast<std::uint32_t>(i));
  }
  mapping_.reset();
}

std::uint32_t Rows::intern(const std::string& s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  if (dict_.size() >= UINT32_MAX) {
    throw io::JsonError("result table: more than 2^32-1 distinct strings");
  }
  const auto code = static_cast<std::uint32_t>(dict_.size());
  dict_.push_back(s);
  index_.emplace(s, code);
  return code;
}

void Rows::push(std::size_t c, Tag tag, std::uint64_t payload) {
  Column& col = cols_[c];
  switch (col.type) {
    case ColumnType::kStringDict:
      col.codes.push_back(static_cast<std::uint32_t>(payload));
      return;
    case ColumnType::kMixed:
      col.tags.push_back(static_cast<std::uint8_t>(tag));
      col.words.push_back(payload);
      return;
    default:
      col.words.push_back(payload);
  }
}

void Rows::append(const Row& row) {
  detach();
  for (std::size_t c = 0; c < row.size(); ++c) {
    std::uint64_t payload = 0;
    const Tag tag = tag_of(row[c], payload);
    if (tag == Tag::kString) payload = intern(row[c].as_string());
    Column& col = cols_[c];
    col.kinds.see(tag, payload);
    // Election only ever widens, and a column with no cells takes any
    // encoding as it is.
    const ColumnType want = col.kinds.elect();
    if (want != col.type) {
      if (nrows_ == 0) {
        col.type = want;
      } else {
        retype(c, want);
      }
    }
    push(c, tag, payload);
  }
  ++nrows_;
}

// ---------------------------------------------------------- ResultTable

void ResultTable::add_row(const Row& row) {
  if (row.size() != columns.size()) {
    throw io::JsonError("result table '" + name + "': row arity " +
                        std::to_string(row.size()) + " != " +
                        std::to_string(columns.size()) + " columns");
  }
  for (const Cell& cell : row) {
    if (cell.is_array() || cell.is_object()) {
      throw io::JsonError("result table: cells must be scalars, got " +
                          std::string{io::to_string(cell.type())});
    }
  }
  if (rows.num_columns() == 0 && rows.empty()) {
    require_distinct_columns(columns);
    rows.init(columns.size());
  } else if (rows.num_columns() != columns.size()) {
    throw io::JsonError("result table '" + name + "': columns changed after " +
                        std::to_string(rows.size()) + " row(s) were added");
  }
  rows.append(row);
}

std::size_t ResultTable::column_index(std::string_view column) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == column) return i;
  }
  std::string have;
  for (const auto& c : columns) {
    if (!have.empty()) have += ", ";
    have += "'" + c + "'";
  }
  throw io::JsonError("result table '" + name + "': no column '" +
                      std::string{column} + "' (columns: " + have + ")");
}

bool ResultTable::has_column(std::string_view column) const {
  return std::find(columns.begin(), columns.end(), column) != columns.end();
}

std::vector<double> ResultTable::column_values(std::string_view column) const {
  const std::size_t ci = column_index(column);
  if (rows.column_type(ci) == ColumnType::kF64) {
    const auto span = rows.f64_column(ci);
    return {span.begin(), span.end()};
  }
  std::vector<double> out;
  out.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out.push_back(rows.cell(r, ci).as_double());
  }
  return out;
}

io::Json ResultTable::meta_json(bool include_provenance) const {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kTableSchema});
  doc.set("name", io::Json{name});
  if (spec.has_value()) doc.set("spec", spec->to_json());
  io::Json meta = io::Json::object();
  meta.set("seed", io::Json{seed});
  io::Json s = io::Json::object();
  s.set("index", io::Json{shard.index});
  s.set("count", io::Json{shard.count});
  meta.set("shard", std::move(s));
  doc.set("meta", std::move(meta));
  io::Json cols = io::Json::array();
  for (const auto& c : columns) cols.push_back(io::Json{c});
  doc.set("columns", std::move(cols));
  if (include_provenance) {
    io::Json prov = io::Json::object();
    prov.set("threads", io::Json{threads});
    prov.set("wall_time_ms", io::Json{wall_time_ms});
    doc.set("provenance", std::move(prov));
  }
  return doc;
}

std::string ResultTable::to_json_text(bool include_provenance) const {
  // Byte for byte io::Json's dump(2) + "\n" of the document: the metadata
  // renders through io::Json, the rows (one line each, cells ", "-separated)
  // straight from the columns, spliced in as the document's member before
  // "provenance".
  std::string out = meta_json(/*include_provenance=*/false).dump(2);
  out.resize(out.size() - 2);  // reopen the document: drop "\n}"
  out += ",\n  \"rows\": ";
  if (rows.empty()) {
    out += "[]";
  } else {
    out += '[';
    for (std::size_t r = 0; r < rows.size(); ++r) {
      out += r == 0 ? "\n    [" : ",\n    [";
      for (std::size_t c = 0; c < rows.num_columns(); ++c) {
        if (c > 0) out += ", ";
        rows.cell(r, c).dump_to(out);
      }
      out += ']';
    }
    out += "\n  ]";
  }
  if (include_provenance) {
    io::Json tail = io::Json::object();
    tail.set("provenance", meta_json(true).at("provenance"));
    out += ',';
    out.append(tail.dump(2), 1);  // without its "{"
  } else {
    out += "\n}";
  }
  out += '\n';
  return out;
}

std::string ResultTable::to_csv() const {
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    io::csv_field(out, columns[i]);
  }
  out += '\n';
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows.num_columns(); ++c) {
      if (c > 0) out += ',';
      const CellView cell = rows.cell(r, c);
      if (cell.is_string()) {
        io::csv_field(out, cell.as_string());
      } else if (!cell.is_null()) {  // null: RFC-4180 missing data
        cell.dump_to(out);           // numbers and bools never need quotes
      }
    }
    out += '\n';
  }
  return out;
}

ResultTable ResultTable::from_json(const io::Json& doc) {
  if (!doc.is_object()) {
    throw io::JsonError("result table: document must be a JSON object");
  }
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kTableSchema && schema != kTableSchemaV2) {
    throw io::JsonError("result table: unsupported schema '" + schema +
                        "' (this build reads '" + std::string{kTableSchema} +
                        "' and '" + std::string{kTableSchemaV2} + "')");
  }
  if (schema == kTableSchemaV2) {
    reject_unknown_fields(
        doc, "$", {"schema", "name", "spec", "meta", "columns", "rows",
                   "provenance"});
    reject_unknown_fields(doc.at("meta"), "$.meta", {"seed", "shard"});
    reject_unknown_fields(doc.at("meta").at("shard"), "$.meta.shard",
                          {"index", "count"});
    if (const io::Json* prov = doc.find("provenance")) {
      reject_unknown_fields(*prov, "$.provenance",
                            {"threads", "wall_time_ms"});
    }
  }
  ResultTable t;
  t.name = doc.at("name").as_string();
  if (const io::Json* spec = doc.find("spec")) {
    t.spec = StudySpec::from_json(*spec);
  }
  const io::Json& meta = doc.at("meta");
  t.seed = meta.at("seed").as_uint64();
  const io::Json& shard = meta.at("shard");
  t.shard.index = static_cast<std::size_t>(shard.at("index").as_uint64());
  t.shard.count = static_cast<std::size_t>(shard.at("count").as_uint64());
  if (t.shard.count == 0 || t.shard.index >= t.shard.count) {
    throw io::JsonError("result table: invalid shard " + t.shard.label());
  }
  for (const io::Json& c : doc.at("columns").as_array()) {
    t.columns.push_back(c.as_string());
  }
  if (t.columns.empty()) {
    throw io::JsonError("result table: no columns");
  }
  require_distinct_columns(t.columns);
  for (const io::Json& row : doc.at("rows").as_array()) {
    t.add_row(row.as_array());
  }
  if (const io::Json* prov = doc.find("provenance")) {
    if (const io::Json* v = prov->find("threads")) {
      t.threads = static_cast<std::size_t>(v->as_uint64());
    }
    if (const io::Json* v = prov->find("wall_time_ms")) {
      t.wall_time_ms = v->as_double();
    }
  }
  return t;
}

ResultTable ResultTable::from_json_text(std::string_view text) {
  return from_json(io::Json::parse(text));
}

void ResultTable::save(const std::string& path, ArtifactFormat format,
                       bool include_provenance) const {
  if (format == ArtifactFormat::kAuto) format = infer_artifact_format(path);
  io::write_file_atomic(
      path, format == ArtifactFormat::kBinary
                ? io::columnar::encode_vbt(*this, include_provenance)
                : to_json_text(include_provenance));
}

ResultTable ResultTable::load(const std::string& path) {
  if (file_has_vbt_magic(path)) {
    // The columnar layer's own errors already name the path and offset.
    auto mapped = io::columnar::MappedTable::open(path);
    // Metadata rides the exact JSON document to_json_text writes (minus
    // "rows"), so the JSON reader's validation — schema, spec round-trip,
    // shard sanity — applies unchanged.
    io::Json doc = mapped->metadata();
    doc.set("rows", io::Json::array());
    ResultTable t;
    try {
      t = from_json(doc);
    } catch (const io::JsonError& e) {
      throw io::JsonError("columnar artifact '" + path +
                          "': metadata: " + e.what());
    }
    t.rows.adopt(std::move(mapped));
    return t;
  }
  const std::string text = io::read_file(path);  // names the path itself
  try {
    return from_json_text(text);
  } catch (const io::JsonError& e) {
    throw io::JsonError("artifact '" + path + "': " + e.what());
  }
}

// ---------------------------------------------------------------- merge

ResultTable merge_result_tables(std::vector<ResultTable> shards) {
  if (shards.empty()) {
    throw io::JsonError("merge: no shard tables given");
  }
  // Stable: among equal indices, the tables keep the order they came in.
  std::stable_sort(shards.begin(), shards.end(),
                   [](const ResultTable& a, const ResultTable& b) {
                     return a.shard.index < b.shard.index;
                   });
  // One study first: the shards of two studies would otherwise fail the
  // shard count below, which names the wrong cause.
  const ResultTable& first = shards.front();
  for (const ResultTable& t : shards) {
    if (t.name != first.name || t.spec != first.spec ||
        t.seed != first.seed || t.columns != first.columns) {
      throw io::JsonError("merge: shard " + t.shard.label() + " ('" + t.name +
                          "', seed " + std::to_string(t.seed) +
                          ") does not belong to the same study as shard " +
                          first.shard.label() + " ('" + first.name +
                          "', seed " + std::to_string(first.seed) +
                          ") — name, spec, seed, and columns must all match");
    }
  }
  const std::size_t count = first.shard.count;
  if (shards.size() != count) {
    throw io::JsonError("merge: got " + std::to_string(shards.size()) +
                        " tables for a " + std::to_string(count) +
                        "-shard study (need every shard exactly once)");
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ResultTable& t = shards[i];
    if (t.shard.count != count) {
      throw io::JsonError("merge: shard counts disagree (" + t.shard.label() +
                          " vs ../" + std::to_string(count) + ")");
    }
    if (t.shard.index != i) {
      throw io::JsonError(
          "merge: shard " + std::to_string(i) + " is " +
          (t.shard.index < i ? "duplicated" : "missing") +
          " (have shard " + t.shard.label() + " instead)");
    }
  }

  ResultTable merged;
  merged.name = first.name;
  merged.spec = first.spec;
  merged.seed = first.seed;
  merged.shard = ShardSpec{};  // unsharded normal form
  merged.threads = 0;          // mixed; provenance only
  merged.columns = first.columns;
  const std::size_t seq_col = merged.column_index("seq");

  // The seq permutation: which (shard, row) lands at each merged position.
  // The canonical (unsharded) order is "seq" = 0..n-1 exactly, so every
  // row goes straight to its slot, whatever order the shards hold it in.
  constexpr std::size_t kUnfilled = SIZE_MAX;
  struct Source {
    std::size_t shard = 0;
    std::size_t row = kUnfilled;
  };
  std::size_t total = 0;
  for (const ResultTable& t : shards) {
    merged.wall_time_ms += t.wall_time_ms;
    total += t.rows.size();
  }
  std::vector<Source> order(total);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const Rows& rows = shards[s].rows;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::uint64_t seq = rows.cell(r, seq_col).as_uint64();
      if (seq >= total || order[seq].row != kUnfilled) {
        throw io::JsonError(
            "merge: row sequence broken at shard " + std::to_string(s) +
            " row " + std::to_string(r) + " (seq " + std::to_string(seq) +
            " of " + std::to_string(total) +
            ") — a shard is missing rows or two shards overlap");
      }
      order[seq] = {s, r};
    }
  }

  // Gather each column in merged order. A merged column's encoding is the
  // election over every shard's kinds, so each gathered cell fits it as
  // it is; strings are re-interned shard by shard as they first appear.
  Rows& out = merged.rows;
  out.init(merged.columns.size());
  constexpr std::uint32_t kUnseen = UINT32_MAX;
  std::vector<std::vector<std::uint32_t>> codes(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    codes[s].assign(shards[s].rows.dictionary().size(), kUnseen);
  }
  for (std::size_t c = 0; c < out.cols_.size(); ++c) {
    Rows::Column& col = out.cols_[c];
    for (const ResultTable& t : shards) {
      if (c < t.rows.cols_.size()) col.kinds |= t.rows.cols_[c].kinds;
    }
    col.type = col.kinds.elect();
    if (col.type == Rows::ColumnType::kStringDict) {
      col.codes.reserve(total);
    } else {
      col.words.reserve(total);
    }
    if (col.type == Rows::ColumnType::kMixed) col.tags.reserve(total);
    for (const Source& src : order) {
      const CellView v = shards[src.shard].rows.cell(src.row, c);
      std::uint64_t payload = v.payload();
      if (v.is_string()) {
        std::uint32_t& code = codes[src.shard][payload];
        if (code == kUnseen) code = out.intern(v.as_string());
        payload = code;
      }
      out.push(c, v.tag(), payload);
    }
  }
  out.nrows_ = total;
  return merged;
}

}  // namespace varbench::study
