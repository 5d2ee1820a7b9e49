#include "src/io/json.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace varbench::io {

std::string_view to_string(Json::Type t) {
  switch (t) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kNumber:
      return "number";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "unknown";
}

namespace {

[[noreturn]] void type_error(std::string_view wanted, const Json& got) {
  // The offending value (truncated — arrays/objects can be arbitrarily
  // large) localizes which field of a spec or artifact was mistyped.
  std::string value = got.dump();
  if (value.size() > 64) value.replace(61, std::string::npos, "...");
  throw JsonError("json: expected " + std::string{wanted} + ", got " +
                  std::string{to_string(got.type())} + " " + value);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", *this);
  return bool_;
}

Json::NumKind Json::number_kind() const {
  if (type_ != Type::kNumber) type_error("number", *this);
  return num_kind_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) type_error("number", *this);
  switch (num_kind_) {
    case NumKind::kDouble:
      return dbl_;
    case NumKind::kUint:
      return static_cast<double>(uint_);
    case NumKind::kInt:
      return static_cast<double>(int_);
  }
  return 0.0;
}

std::uint64_t Json::as_uint64() const {
  if (type_ != Type::kNumber) type_error("unsigned integer", *this);
  switch (num_kind_) {
    case NumKind::kUint:
      return uint_;
    case NumKind::kInt:
      throw JsonError("json: expected unsigned integer, got negative " +
                      dump());
    case NumKind::kDouble: {
      const double d = dbl_;
      if (d < 0.0 || d != std::floor(d) || d > 9007199254740992.0) {
        throw JsonError("json: expected unsigned integer, got " + dump());
      }
      return static_cast<std::uint64_t>(d);
    }
  }
  return 0;
}

std::int64_t Json::as_int64() const {
  if (type_ != Type::kNumber) type_error("integer", *this);
  switch (num_kind_) {
    case NumKind::kInt:
      return int_;
    case NumKind::kUint:
      if (uint_ > static_cast<std::uint64_t>(INT64_MAX)) {
        throw JsonError("json: integer overflow: " + dump() +
                        " does not fit a signed 64-bit value");
      }
      return static_cast<std::int64_t>(uint_);
    case NumKind::kDouble: {
      const double d = dbl_;
      if (d != std::floor(d) || std::abs(d) > 9007199254740992.0) {
        throw JsonError("json: expected integer, got " + dump());
      }
      return static_cast<std::int64_t>(d);
    }
  }
  return 0;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", *this);
  return str_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", *this);
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", *this);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

const Json& Json::at(std::string_view key) const {
  if (type_ != Type::kObject) type_error("object", *this);
  if (const Json* v = find(key)) return *v;
  std::string have;
  for (const auto& [k, v] : obj_) {
    if (!have.empty()) have += ", ";
    have += "'" + k + "'";
  }
  throw JsonError("json: missing key '" + std::string{key} + "' (present: " +
                  (have.empty() ? std::string{"none"} : have) + ")");
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", *this);
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", *this);
  arr_.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  type_error("array or object", *this);
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      // Numbers compare by value across kinds (42 == 42.0), except that
      // kinds are preserved on round-trip so artifacts stay byte-stable.
      if (a.num_kind_ == b.num_kind_) {
        switch (a.num_kind_) {
          case Json::NumKind::kDouble:
            return a.dbl_ == b.dbl_;
          case Json::NumKind::kUint:
            return a.uint_ == b.uint_;
          case Json::NumKind::kInt:
            return a.int_ == b.int_;
        }
      }
      return a.as_double() == b.as_double();
    case Json::Type::kString:
      return a.str_ == b.str_;
    case Json::Type::kArray:
      return a.arr_ == b.arr_;
    case Json::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

// --------------------------------------------------------------- writer

void dump_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_double(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no non-finite literals; null is the conventional stand-in
    // and the study layer never emits non-finite measures.
    out += "null";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, ptr);
  // Keep number-kind information in the bytes: a double that happens to be
  // integral still reads back as a double.
  if (std::memchr(buf, '.', static_cast<std::size_t>(ptr - buf)) == nullptr &&
      std::memchr(buf, 'e', static_cast<std::size_t>(ptr - buf)) == nullptr &&
      std::memchr(buf, 'n', static_cast<std::size_t>(ptr - buf)) == nullptr) {
    out += ".0";
  }
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      switch (num_kind_) {
        case NumKind::kDouble:
          dump_double(out, dbl_);
          return;
        case NumKind::kUint:
          out += std::to_string(uint_);
          return;
        case NumKind::kInt:
          out += std::to_string(int_);
          return;
      }
      return;
    case Type::kString:
      dump_string(out, str_);
      return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      // Arrays of scalars stay on one line even in pretty mode — rows of a
      // ResultTable read as rows, not as one value per line.
      bool all_scalar = true;
      for (const Json& v : arr_) {
        if (v.is_array() || v.is_object()) {
          all_scalar = false;
          break;
        }
      }
      out += '[';
      const bool multiline = indent >= 0 && !all_scalar;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += multiline ? "," : (indent >= 0 ? ", " : ",");
        if (multiline) newline_indent(out, indent, depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (multiline) newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) newline_indent(out, indent, depth + 1);
        dump_string(out, obj_[i].first);
        out += indent >= 0 ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent >= 0) newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json parse error at " + std::to_string(line) + ":" +
                    std::to_string(col) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string{"expected '"} + c + "'");
    }
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    // Recursion bound: corrupt/adversarial input must throw, not blow the
    // stack. Real specs/artifacts nest a handful of levels.
    if (depth_ >= 256) fail("nesting deeper than 256 levels");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json{parse_string()};
      case 't':
        if (consume_word("true")) return Json{true};
        fail("invalid literal");
      case 'f':
        if (consume_word("false")) return Json{false};
        fail("invalid literal");
      case 'n':
        if (consume_word("null")) return Json{};
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    ++depth_;
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) {
      --depth_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate key '" + key + "'");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      --depth_;
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    ++depth_;
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) {
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      --depth_;
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode (BMP only; specs/artifacts are ASCII in practice).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail(std::string{"invalid escape '\\"} + e + "'");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign handled below by from_chars/strtod on the full token
    }
    bool is_integer = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");
    if (is_integer) {
      if (token[0] == '-') {
        std::int64_t i = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), i);
        if (ec == std::errc{} && p == token.data() + token.size()) {
          return Json{i};
        }
      } else {
        std::uint64_t u = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), u);
        if (ec == std::errc{} && p == token.data() + token.size()) {
          return Json{u};
        }
      }
      // fall through to double on integer overflow
    }
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec != std::errc{} || p != token.data() + token.size()) {
      pos_ = start;
      fail("invalid number '" + std::string{token} + "'");
    }
    return Json{d};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser{text}.parse_document(); }

// ----------------------------------------------------------------- files

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw JsonError("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw JsonError("error reading '" + path + "'");
  return out;
}

void write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw JsonError("cannot write '" + path + "': " + std::strerror(errno));
  }
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool bad = std::fclose(f) != 0 || n != content.size();
  if (bad) throw JsonError("error writing '" + path + "'");
}

void write_file_atomic(const std::string& path, std::string_view content) {
  // Unique per process (pid) and per call (counter): concurrent writers of
  // the same path must not collide on the temp file.
#ifdef _WIN32
  const auto pid = static_cast<unsigned long>(::_getpid());
#else
  const auto pid = static_cast<unsigned long>(::getpid());
#endif
  static std::atomic<unsigned long> counter{0};
  const std::string tmp = path + ".tmp-" + std::to_string(pid) + "-" +
                          std::to_string(counter.fetch_add(1));
  write_file(tmp, content);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw JsonError("cannot move '" + tmp + "' to '" + path +
                    "': " + ec.message());
  }
}

}  // namespace varbench::io
