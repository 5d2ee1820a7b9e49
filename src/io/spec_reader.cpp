#include "src/io/spec_reader.h"

#include <algorithm>

namespace varbench::io {

ObjectReader::ObjectReader(const Json& obj, std::string_view domain,
                           std::string_view where)
    : obj_{obj}, domain_{domain}, where_{where} {
  if (!obj_.is_object()) {
    throw JsonError(domain_ + ": " + where_ + " must be an object, got " +
                    obj_.dump());
  }
}

const Json* ObjectReader::find(std::string_view key) {
  seen_.emplace_back(key);
  return obj_.find(key);
}

const Json& ObjectReader::at(std::string_view key) {
  const Json* v = find(key);
  if (v == nullptr) {
    throw JsonError(domain_ + ": missing required key '" + std::string{key} +
                    "' in " + where_);
  }
  return *v;
}

void ObjectReader::reject_unknown_keys() const {
  for (const auto& [key, value] : obj_.as_object()) {
    if (std::find(seen_.begin(), seen_.end(), key) != seen_.end()) continue;
    std::string expected;
    for (const auto& s : seen_) {
      if (!expected.empty()) expected += ", ";
      expected += "'" + s + "'";
    }
    throw JsonError(domain_ + ": unknown key '" + key + "' in " + where_ +
                    " (expected one of: " + expected + ")");
  }
}

std::string read_string(const Json& v, std::string_view domain,
                        std::string_view key) {
  if (!v.is_string()) {
    throw JsonError(std::string{domain} + ": '" + std::string{key} +
                    "' must be a string, got " + v.dump());
  }
  return v.as_string();
}

double read_double(const Json& v, std::string_view domain,
                   std::string_view key) {
  if (!v.is_number()) {
    throw JsonError(std::string{domain} + ": '" + std::string{key} +
                    "' must be a number, got " + v.dump());
  }
  return v.as_double();
}

std::size_t read_size(const Json& v, std::string_view domain,
                      std::string_view key) {
  try {
    return static_cast<std::size_t>(v.as_uint64());
  } catch (const JsonError&) {
    throw JsonError(std::string{domain} + ": '" + std::string{key} +
                    "' must be a non-negative integer, got " + v.dump());
  }
}

bool read_bool(const Json& v, std::string_view domain, std::string_view key) {
  if (!v.is_bool()) {
    throw JsonError(std::string{domain} + ": '" + std::string{key} +
                    "' must be true or false, got " + v.dump());
  }
  return v.as_bool();
}

namespace {

/// Every element of array `v` through the scalar reader `read`.
template <typename Read>
auto read_array(const Json& v, std::string_view domain, std::string_view key,
                Read read) {
  if (!v.is_array()) {
    throw JsonError(std::string{domain} + ": '" + std::string{key} +
                    "' must be an array, got " + v.dump());
  }
  std::vector<decltype(read(v, domain, key))> out;
  for (const Json& item : v.as_array()) out.push_back(read(item, domain, key));
  return out;
}

template <typename T>
Json to_array(const std::vector<T>& v) {
  Json arr = Json::array();
  for (const T& x : v) arr.push_back(Json{x});
  return arr;
}

}  // namespace

std::vector<std::string> read_string_array(const Json& v,
                                           std::string_view domain,
                                           std::string_view key) {
  return read_array(v, domain, key, read_string);
}

std::vector<std::size_t> read_size_array(const Json& v,
                                         std::string_view domain,
                                         std::string_view key) {
  return read_array(v, domain, key, read_size);
}

std::vector<double> read_double_array(const Json& v, std::string_view domain,
                                      std::string_view key) {
  return read_array(v, domain, key, read_double);
}

Json string_array(const std::vector<std::string>& v) { return to_array(v); }

Json size_array(const std::vector<std::size_t>& v) { return to_array(v); }

Json double_array(const std::vector<double>& v) { return to_array(v); }

void reject_unknown_fields(const Json& obj, std::string_view domain,
                           std::string_view schema, std::string_view path,
                           std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : obj.as_object()) {
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    if (ok) continue;
    std::string list;
    for (const std::string_view k : known) {
      if (!list.empty()) list += ", ";
      list += "'" + std::string{k} + "'";
    }
    throw JsonError(std::string{domain} + ": unknown field '" +
                    std::string{path} + "." + key + "' (schema " +
                    std::string{schema} + " reader knows: " + list + ")");
  }
}

}  // namespace varbench::io
