#include "src/report/render.h"

#include <algorithm>
#include <charconv>

#include "src/io/csv.h"
#include "src/io/json.h"

namespace varbench::report {

namespace {

constexpr std::string_view kReportSchema = "varbench.report.v1";

/// Locale-independent "%.6g"-style rendering (std::to_chars is always
/// "C"-locale) — a host application's setlocale() must not change report
/// bytes or break the CSV column structure with comma decimals.
std::string fmt(double v) {
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
  return std::string(buf, ec == std::errc{} ? end : buf);
}

/// Locale-independent "%.1f"-style rendering for wall-time milliseconds.
std::string fmt_ms(double v) {
  char buf[64];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 1);
  return std::string(buf, ec == std::errc{} ? end : buf);
}

std::string ci_label(const ReportSpec& spec) {
  return fmt(spec.confidence * 100.0);
}

/// One rendered table: header + string cells. Columns before `left_columns`
/// are left-aligned (labels); the rest right-aligned (numbers).
struct Grid {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::size_t left_columns = 2;
};

Grid summary_grid(const Report& report) {
  const ReportSpec& spec = report.spec;
  const bool grouped =
      std::any_of(report.columns.begin(), report.columns.end(),
                  [](const ColumnSummary& s) { return !s.group.empty(); });
  const bool any_missing =
      std::any_of(report.columns.begin(), report.columns.end(),
                  [](const ColumnSummary& s) { return s.missing > 0; });
  Grid g;
  g.left_columns = grouped ? 2 : 1;
  if (grouped) g.header.push_back("group");
  g.header.push_back("column");
  g.header.push_back("n");
  if (any_missing) g.header.push_back("missing");
  for (const auto& est : spec.estimators) {
    if (est == "ci") {
      g.header.push_back("ci" + ci_label(spec) + ".lo");
      g.header.push_back("ci" + ci_label(spec) + ".hi");
    } else if (est == "normality") {
      g.header.push_back("sw_w");
      g.header.push_back("sw_p");
    } else {
      g.header.push_back(est);
    }
  }
  for (const ColumnSummary& s : report.columns) {
    std::vector<std::string> row;
    if (grouped) row.push_back(s.group.empty() ? "(all)" : s.group);
    row.push_back(s.column);
    row.push_back(std::to_string(s.n));
    if (any_missing) row.push_back(std::to_string(s.missing));
    for (const auto& est : spec.estimators) {
      if (est == "mean") {
        row.push_back(fmt(s.mean));
      } else if (est == "std") {
        row.push_back(fmt(s.stddev));
      } else if (est == "min") {
        row.push_back(fmt(s.min));
      } else if (est == "max") {
        row.push_back(fmt(s.max));
      } else if (est == "median") {
        row.push_back(fmt(s.median));
      } else if (est == "ci") {
        row.push_back(s.ci_mean ? fmt(s.ci_mean->lower) : "-");
        row.push_back(s.ci_mean ? fmt(s.ci_mean->upper) : "-");
      } else if (est == "normality") {
        row.push_back(s.normality ? fmt(s.normality->w_statistic) : "-");
        row.push_back(s.normality ? fmt(s.normality->p_value) : "-");
      }
    }
    g.rows.push_back(std::move(row));
  }
  return g;
}

Grid comparison_grid(const Report& report) {
  Grid g;
  g.left_columns = 3;
  g.header = {"column", "A",       "B",        "n_A",      "n_B",
              "mean_A", "mean_B",  "P(A>B)",   "ci.lo",    "ci.hi",
              "perm_p", "pairing", "conclusion"};
  for (const ComparisonSummary& c : report.comparisons) {
    g.rows.push_back({c.column, c.label_a, c.label_b, std::to_string(c.n_a),
                      std::to_string(c.n_b), fmt(c.mean_a), fmt(c.mean_b),
                      fmt(c.p_a_greater_b), c.ci ? fmt(c.ci->lower) : "-",
                      c.ci ? fmt(c.ci->upper) : "-", fmt(c.permutation_p),
                      c.paired ? "paired" : "unpaired",
                      c.conclusion.empty() ? "-" : c.conclusion});
  }
  return g;
}

Grid provenance_grid(const CampaignProvenance& prov) {
  Grid g;
  g.left_columns = 1;
  g.header = {"study", "wall_time_ms"};
  for (const auto& [label, ms] : prov.study_wall_ms) {
    g.rows.push_back({label, fmt_ms(ms)});
  }
  g.rows.push_back({"total", fmt_ms(prov.total_wall_ms)});
  return g;
}

std::string provenance_note(const CampaignProvenance& prov) {
  return "campaign wall time: " + fmt_ms(prov.total_wall_ms) + " ms over " +
         std::to_string(prov.tasks_with_wall_time) + "/" +
         std::to_string(prov.tasks) + " task(s) with provenance";
}

std::string settings_line(const ReportSpec& spec) {
  return "ci = " + spec.ci_method + " @ " + ci_label(spec) + "% (" +
         std::to_string(spec.resamples) + " resamples); permutations = " +
         std::to_string(spec.permutations) +
         "; gamma = " + fmt(spec.gamma);
}

// ------------------------------------------------------------------ text

void grid_text(const Grid& g, std::string& out) {
  std::vector<std::size_t> width(g.header.size());
  for (std::size_t i = 0; i < g.header.size(); ++i) {
    width[i] = g.header[i].size();
  }
  for (const auto& row : g.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  const auto emit = [&](const std::vector<std::string>& row) {
    out += " ";
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "  ";
      const std::string pad(width[i] - row[i].size(), ' ');
      out += i < g.left_columns ? row[i] + pad : pad + row[i];
    }
    // The left-aligned last column may have trailing padding — drop it.
    while (!out.empty() && out.back() == ' ') out.pop_back();
    out += '\n';
  };
  emit(g.header);
  for (const auto& row : g.rows) emit(row);
}

std::string render_text(const Report& report) {
  std::string out = "report: " + report.title + "\n";
  out += "  seed " + std::to_string(report.seed) + ", " +
         std::to_string(report.rows) + " rows; " +
         settings_line(report.spec) + "\n\n";
  grid_text(summary_grid(report), out);
  if (!report.comparisons.empty()) {
    out += "\n";
    grid_text(comparison_grid(report), out);
  }
  if (report.provenance.has_value()) {
    out += "\n" + provenance_note(*report.provenance) + "\n";
    grid_text(provenance_grid(*report.provenance), out);
  }
  return out;
}

// -------------------------------------------------------------- markdown

void grid_markdown(const Grid& g, std::string& out) {
  const auto emit = [&](const std::vector<std::string>& row) {
    out += "|";
    for (const auto& cell : row) {
      out += " " + cell + " |";
    }
    out += '\n';
  };
  emit(g.header);
  out += "|";
  for (std::size_t i = 0; i < g.header.size(); ++i) {
    out += i < g.left_columns ? " --- |" : " ---: |";
  }
  out += '\n';
  for (const auto& row : g.rows) emit(row);
}

std::string render_markdown(const Report& report) {
  std::string out = "# report: " + report.title + "\n\n";
  out += "- seed " + std::to_string(report.seed) + ", " +
         std::to_string(report.rows) + " rows\n";
  out += "- " + settings_line(report.spec) + "\n\n## summaries\n\n";
  grid_markdown(summary_grid(report), out);
  if (!report.comparisons.empty()) {
    out += "\n## comparisons\n\n";
    grid_markdown(comparison_grid(report), out);
  }
  if (report.provenance.has_value()) {
    out += "\n## " + provenance_note(*report.provenance) + "\n\n";
    grid_markdown(provenance_grid(*report.provenance), out);
  }
  return out;
}

// ------------------------------------------------------------------- csv

void grid_csv(const Grid& g, std::string& out) {
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      io::csv_field(out, row[i]);
    }
    out += '\n';
  };
  emit(g.header);
  for (const auto& row : g.rows) emit(row);
}

std::string render_csv(const Report& report) {
  // Blocks (summaries, comparisons, provenance) are separated by one blank
  // line and carry their own header row.
  std::string out;
  grid_csv(summary_grid(report), out);
  if (!report.comparisons.empty()) {
    out += '\n';
    grid_csv(comparison_grid(report), out);
  }
  if (report.provenance.has_value()) {
    out += '\n';
    grid_csv(provenance_grid(*report.provenance), out);
  }
  return out;
}

// ------------------------------------------------------------------ json

io::Json ci_to_json(const stats::ConfidenceInterval& ci) {
  io::Json j = io::Json::object();
  j.set("lower", io::Json{ci.lower});
  j.set("upper", io::Json{ci.upper});
  j.set("level", io::Json{ci.level});
  return j;
}

io::Json report_to_json(const Report& report) {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kReportSchema});
  doc.set("title", io::Json{report.title});
  doc.set("seed", io::Json{report.seed});
  doc.set("rows", io::Json{report.rows});
  doc.set("spec", report.spec.to_json());

  io::Json summaries = io::Json::array();
  for (const ColumnSummary& s : report.columns) {
    io::Json j = io::Json::object();
    if (!s.group.empty()) j.set("group", io::Json{s.group});
    j.set("column", io::Json{s.column});
    j.set("n", io::Json{s.n});
    if (s.missing > 0) j.set("missing", io::Json{s.missing});
    j.set("mean", io::Json{s.mean});
    j.set("std", io::Json{s.stddev});
    j.set("min", io::Json{s.min});
    j.set("max", io::Json{s.max});
    j.set("median", io::Json{s.median});
    if (s.ci_mean.has_value()) j.set("ci_mean", ci_to_json(*s.ci_mean));
    if (s.normality.has_value()) {
      io::Json sw = io::Json::object();
      sw.set("w", io::Json{s.normality->w_statistic});
      sw.set("p", io::Json{s.normality->p_value});
      j.set("shapiro_wilk", std::move(sw));
    }
    summaries.push_back(std::move(j));
  }
  doc.set("summaries", std::move(summaries));

  if (!report.comparisons.empty()) {
    io::Json comparisons = io::Json::array();
    for (const ComparisonSummary& c : report.comparisons) {
      io::Json j = io::Json::object();
      j.set("column", io::Json{c.column});
      j.set("a", io::Json{c.label_a});
      j.set("b", io::Json{c.label_b});
      j.set("n_a", io::Json{c.n_a});
      j.set("n_b", io::Json{c.n_b});
      j.set("paired", io::Json{c.paired});
      j.set("mean_a", io::Json{c.mean_a});
      j.set("mean_b", io::Json{c.mean_b});
      j.set("p_a_greater_b", io::Json{c.p_a_greater_b});
      if (c.ci.has_value()) j.set("ci", ci_to_json(*c.ci));
      if (!c.conclusion.empty()) j.set("conclusion", io::Json{c.conclusion});
      j.set("permutation_p", io::Json{c.permutation_p});
      comparisons.push_back(std::move(j));
    }
    doc.set("comparisons", std::move(comparisons));
  }

  if (report.provenance.has_value()) {
    const CampaignProvenance& prov = *report.provenance;
    io::Json j = io::Json::object();
    j.set("tasks", io::Json{prov.tasks});
    j.set("tasks_with_wall_time", io::Json{prov.tasks_with_wall_time});
    j.set("total_wall_ms", io::Json{prov.total_wall_ms});
    io::Json studies = io::Json::array();
    for (const auto& [label, ms] : prov.study_wall_ms) {
      io::Json entry = io::Json::object();
      entry.set("study", io::Json{label});
      entry.set("wall_ms", io::Json{ms});
      studies.push_back(std::move(entry));
    }
    j.set("studies", std::move(studies));
    doc.set("campaign", std::move(j));
  }
  return doc;
}

}  // namespace

Format format_from_string(std::string_view name) {
  if (name == "text") return Format::kText;
  if (name == "markdown" || name == "md") return Format::kMarkdown;
  if (name == "csv") return Format::kCsv;
  if (name == "json") return Format::kJson;
  throw io::JsonError("report: unknown format '" + std::string{name} +
                      "' (known: 'text', 'markdown', 'csv', 'json')");
}

std::string_view to_string(Format format) {
  switch (format) {
    case Format::kText:
      return "text";
    case Format::kMarkdown:
      return "markdown";
    case Format::kCsv:
      return "csv";
    case Format::kJson:
      return "json";
  }
  return "text";
}

std::string render(const Report& report, Format format) {
  switch (format) {
    case Format::kText:
      return render_text(report);
    case Format::kMarkdown:
      return render_markdown(report);
    case Format::kCsv:
      return render_csv(report);
    case Format::kJson:
      return report_to_json(report).dump(2) + "\n";
  }
  return render_text(report);
}

std::string render_all(const std::vector<Report>& reports, Format format) {
  if (format == Format::kJson) {
    io::Json arr = io::Json::array();
    for (const Report& r : reports) arr.push_back(report_to_json(r));
    return arr.dump(2) + "\n";
  }
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) out += "\n";
    out += render(reports[i], format);
  }
  return out;
}

}  // namespace varbench::report
