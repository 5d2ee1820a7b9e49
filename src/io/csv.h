// RFC 4180 field quoting, shared by every CSV writer: ResultTable::to_csv
// (`varbench merge --csv`, `run --csv`) and the report renderer
// (`varbench report --format csv`).
#pragma once

#include <string>
#include <string_view>

namespace varbench::io {

/// Append `raw` to `out` as one CSV field: verbatim, unless it holds a
/// comma, a double quote, a LF or a CR — then quoted, with each quote
/// doubled, so a reader never splits the record.
inline void csv_field(std::string& out, std::string_view raw) {
  if (raw.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += raw;
    return;
  }
  out += '"';
  for (const char c : raw) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace varbench::io
