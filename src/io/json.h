// Minimal, dependency-free JSON layer for experiment specs and result
// artifacts (src/study/). Design constraints, in order:
//
//   1. Lossless round-trips. Seeds are full 64-bit integers
//      (`derive_seed` outputs), so numbers keep their parsed kind:
//      unsigned, signed, or double — never silently squeezed through a
//      double. Doubles serialize with shortest-round-trip `std::to_chars`.
//   2. Deterministic bytes. Objects preserve insertion order, the writer
//      has exactly one rendering per value — equal values always produce
//      equal bytes (the shard/merge identity check diffs serialized
//      artifacts, see docs/study_api.md).
//   3. Actionable errors. Parse failures throw with line:column and
//      lookups throw with the missing key and the keys that are present.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace varbench::io {

/// Thrown on malformed documents and type/key mismatches.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type : int { kNull, kBool, kNumber, kString, kArray, kObject };
  /// Which representation a kNumber value carries. Invariant: kInt only
  /// ever holds negative values (the int64 constructor and the parser both
  /// route non-negative integers to kUint), so the kind is recoverable
  /// from the sign — the property the binary columnar encoder relies on.
  enum class NumKind : int { kDouble, kUint, kInt };

  using Array = std::vector<Json>;
  /// Insertion-ordered; keys unique (enforced by set() and the parser).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool b) : type_{Type::kBool}, bool_{b} {}
  Json(double d) : type_{Type::kNumber}, num_kind_{NumKind::kDouble}, dbl_{d} {}
  Json(std::uint64_t u)
      : type_{Type::kNumber}, num_kind_{NumKind::kUint}, uint_{u} {}
  Json(std::int64_t i)
      : type_{Type::kNumber},
        num_kind_{i < 0 ? NumKind::kInt : NumKind::kUint} {
    if (i < 0) {
      int_ = i;
    } else {
      uint_ = static_cast<std::uint64_t>(i);
    }
  }
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
  // size_t/uint64_t are the same type on this platform; no extra overload.
  Json(std::string s) : type_{Type::kString}, str_{std::move(s)} {}
  Json(std::string_view s) : Json(std::string{s}) {}
  Json(const char* s) : Json(std::string{s}) {}
  // Paren-init: brace-init would treat the vector as a one-element
  // initializer_list<Json> (Json converts from Array) and recurse.
  Json(Array a) : type_{Type::kArray}, arr_(std::move(a)) {}
  Json(Object o) : type_{Type::kObject}, obj_(std::move(o)) {}

  [[nodiscard]] static Json object() { return Json{Object{}}; }
  [[nodiscard]] static Json array() { return Json{Array{}}; }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// The number representation; throws JsonError unless is_number().
  [[nodiscard]] NumKind number_kind() const;

  /// Checked accessors — throw JsonError naming the actual type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;      // any number kind, widened
  [[nodiscard]] std::uint64_t as_uint64() const;  // exact or throws
  [[nodiscard]] std::int64_t as_int64() const;    // exact or throws
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // ---- object interface ----
  /// Pointer to the member value, or nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] Json* find(std::string_view key);
  /// Member value; throws JsonError listing available keys when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Insert or replace, preserving first-insertion order.
  void set(std::string key, Json value);

  // ---- array interface ----
  void push_back(Json value);
  [[nodiscard]] std::size_t size() const;

  friend bool operator==(const Json& a, const Json& b);

  /// Serialize. `indent < 0` → compact one-line form; `indent >= 0` →
  /// pretty-printed with that many spaces per level. Both renderings are
  /// deterministic functions of the value.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete document (trailing garbage is an error).
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  NumKind num_kind_ = NumKind::kDouble;
  double dbl_ = 0.0;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

[[nodiscard]] std::string_view to_string(Json::Type t);

/// The writer's scalar renderings, for callers that render values without
/// building an io::Json (ResultTable rows): a quoted, escaped string, and a
/// shortest-round-trip double that keeps ".0" when integral and renders
/// non-finite values as null.
void dump_string(std::string& out, std::string_view s);
void dump_double(std::string& out, double d);

/// Read an entire file; throws JsonError (with the path and the system's
/// reason) on I/O failure.
[[nodiscard]] std::string read_file(const std::string& path);

/// Write `content` to `path` (truncate + write, in place); throws
/// JsonError on failure.
void write_file(const std::string& path, std::string_view content);

/// Write `content` to a temp file beside `path`, then rename it over
/// `path`: a reader never sees a partial file, and a process that mapped
/// the old file keeps reading the old bytes. Artifacts, tickets and
/// manifests are written this way. Throws JsonError on failure, after
/// removing the temp file.
void write_file_atomic(const std::string& path, std::string_view content);

}  // namespace varbench::io
