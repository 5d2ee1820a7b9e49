// Strict reading of spec-style JSON objects, shared by every serializable
// spec type (StudySpec, ReportSpec, ...): every key a parser never asked
// for is an error, so typos fail loudly instead of silently running with
// defaults, and type mismatches throw with the key name and the offending
// value.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/io/json.h"

namespace varbench::io {

/// Tracks which keys of an object were consumed; call reject_unknown_keys()
/// after all reads. `domain` prefixes every error message ("spec", "report
/// spec"); `where` names the object being read ("the spec", "'params'"),
/// also when `obj` is not an object at all.
class ObjectReader {
 public:
  ObjectReader(const Json& obj, std::string_view domain,
               std::string_view where);

  [[nodiscard]] const Json* find(std::string_view key);
  /// Member value; throws JsonError when absent.
  [[nodiscard]] const Json& at(std::string_view key);
  /// Call after all reads: any key never asked for is unknown.
  void reject_unknown_keys() const;

 private:
  const Json& obj_;
  std::string domain_;
  std::string where_;
  std::vector<std::string> seen_;
};

/// Typed readers with actionable, domain-prefixed errors that name `key`:
/// a wrong type, or a wrong element type in an array, says what `key` must
/// be and shows the offending value.
[[nodiscard]] std::string read_string(const Json& v, std::string_view domain,
                                      std::string_view key);
[[nodiscard]] double read_double(const Json& v, std::string_view domain,
                                 std::string_view key);
[[nodiscard]] std::size_t read_size(const Json& v, std::string_view domain,
                                    std::string_view key);
[[nodiscard]] bool read_bool(const Json& v, std::string_view domain,
                             std::string_view key);
[[nodiscard]] std::vector<std::string> read_string_array(
    const Json& v, std::string_view domain, std::string_view key);
[[nodiscard]] std::vector<std::size_t> read_size_array(
    const Json& v, std::string_view domain, std::string_view key);
[[nodiscard]] std::vector<double> read_double_array(const Json& v,
                                                    std::string_view domain,
                                                    std::string_view key);

/// Array builders for the symmetric serialization path.
[[nodiscard]] Json string_array(const std::vector<std::string>& v);
[[nodiscard]] Json size_array(const std::vector<std::size_t>& v);
[[nodiscard]] Json double_array(const std::vector<double>& v);

/// The v2 strict-tolerance reading contract (docs/study_api.md): every
/// key of `obj` must appear in `known`, otherwise throw a JsonError
/// naming the offending JSON path ("$.meta.frobnicate"), the schema being
/// read, and the fields this build knows — so producers of future
/// documents learn exactly which field an old reader cannot honor.
/// `domain` prefixes the message ("result table", "report").
void reject_unknown_fields(const Json& obj, std::string_view domain,
                           std::string_view schema, std::string_view path,
                           std::initializer_list<std::string_view> known);

}  // namespace varbench::io
