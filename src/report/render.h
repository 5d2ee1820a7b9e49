// Report rendering backends. Every format is a deterministic function of
// the Report value — fixed float formatting (shortest-round-trip doubles in
// JSON, %.6g elsewhere), no timestamps, no locale — so rendered reports are
// byte-comparable across thread counts, shard splits, and machines, and CI
// can diff them (docs/reporting.md).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/report/summary.h"
#include "src/study/result_table.h"

namespace varbench::report {

enum class Format : int { kText, kMarkdown, kCsv, kJson };

/// Accepts "text", "markdown" (alias "md"), "csv", "json"; throws
/// io::JsonError listing the valid names otherwise.
[[nodiscard]] Format format_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(Format format);

/// Render one report. The estimator list of the report's spec selects and
/// orders the statistic columns; absent optional values render as "-"
/// (null in JSON).
[[nodiscard]] std::string render(const Report& report, Format format);

/// Render several reports as one document: a JSON array for kJson, the
/// individual renderings joined by a blank line otherwise. Used for
/// directory reports (one report per study).
[[nodiscard]] std::string render_all(const std::vector<Report>& reports,
                                     Format format);

/// Render a table itself — the column names as the header, one grid row
/// per table row — for tables that already are summaries, such as
/// `varbench trace --summary`'s one row per span. Text, markdown and csv
/// use the report grids (strings as they are, doubles in the report's
/// number format, other cells as JSON); kJson is table.to_json_text().
[[nodiscard]] std::string render_table(const study::ResultTable& table,
                                       Format format);

}  // namespace varbench::report
