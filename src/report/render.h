// Report rendering backends. Every format is a deterministic function of
// the Report value — fixed float formatting (shortest-round-trip doubles in
// JSON, %.6g elsewhere), no timestamps, no locale — so rendered reports are
// byte-comparable across thread counts, shard splits, and machines, and CI
// can diff them (docs/reporting.md).
#pragma once

#include <cstdio>
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
/// `varbench trace --summary`'s one row per span and the summary blocks of
/// print_summary. Text, markdown and csv use the report grids (strings as
/// they are, doubles in the report's number format, null as "-", other
/// cells as JSON); kJson is table.to_json_text().
[[nodiscard]] std::string render_table(const study::ResultTable& table,
                                       Format format);

/// The summary `varbench run` and `varbench merge` print for a complete
/// study table: a figure kind's title and paper claim, then each block of
/// its kind's summarizer (study_kinds.h), its name above
/// render_table(block, kText). For a partial (shard) table, a note
/// pointing at `varbench merge`; for a spec-less table, its shape.
void print_summary(const study::ResultTable& table, std::FILE* out);

}  // namespace varbench::report
