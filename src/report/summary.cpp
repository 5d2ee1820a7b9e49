#include "src/report/summary.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "src/io/columnar/format.h"
#include "src/rngx/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/stats/tests.h"

namespace varbench::report {

namespace {

/// Index columns by repo convention: enumeration order, not measurements.
/// The figure kinds add per-unit enumerations of their own (realization,
/// run, iter, seed of figF2, year of fig03) — axes to group_by over, not
/// values to summarize by default.
constexpr std::string_view kIndexColumns[] = {"seq", "rep",  "sim", "realization",
                                              "run", "iter", "seed", "year"};

bool is_index_column(const std::string& name) {
  for (const std::string_view c : kIndexColumns) {
    if (name == c) return true;
  }
  return false;
}

bool has_estimator(const ReportSpec& spec, std::string_view name) {
  return std::find(spec.estimators.begin(), spec.estimators.end(), name) !=
         spec.estimators.end();
}

/// A column is numeric when every cell is a number or null and at least one
/// is a number (bench tables use null for not-applicable cells). Typed
/// columns answer from their encoding; only mixed ones scan their cells.
bool column_is_numeric(const study::ResultTable& table, std::size_t ci) {
  using io::columnar::ColumnType;
  switch (table.rows.column_type(ci)) {
    case ColumnType::kF64:
    case ColumnType::kI64:
    case ColumnType::kU64:
      return !table.rows.empty();
    case ColumnType::kStringDict:
      return false;
    case ColumnType::kMixed:
      break;
  }
  bool any_number = false;
  for (const auto& row : table.rows) {
    if (row[ci].is_number()) {
      any_number = true;
    } else if (!row[ci].is_null()) {
      return false;
    }
  }
  return any_number;
}

/// Numeric values of one column for the given rows, nulls skipped. Throws
/// when a cell is neither number nor null — a selected column must be data.
std::vector<double> numeric_values(const study::ResultTable& table,
                                   std::size_t ci,
                                   const std::vector<std::size_t>& rows,
                                   std::size_t* missing) {
  using io::columnar::ColumnType;
  std::vector<double> out;
  out.reserve(rows.size());
  // f64 columns gather straight from their span — no nulls by
  // construction.
  if (table.rows.column_type(ci) == ColumnType::kF64) {
    const auto values = table.rows.f64_column(ci);
    for (const std::size_t ri : rows) out.push_back(values[ri]);
    return out;
  }
  for (const std::size_t ri : rows) {
    const study::CellView cell = table.rows[ri][ci];
    if (cell.is_null()) {
      ++*missing;
      continue;
    }
    if (!cell.is_number()) {
      throw io::JsonError("report: column '" + table.columns[ci] +
                          "' is not numeric (row " + std::to_string(ri) +
                          " holds " + cell.dump() + ")");
    }
    out.push_back(cell.as_double());
  }
  return out;
}

struct RowGroups {
  std::vector<std::string> keys;                  // first-appearance order
  std::vector<std::vector<std::size_t>> members;  // row indices per key
};

/// Rows grouped by the group_by column's key — the string itself for
/// strings, the canonical JSON rendering otherwise (numbers, bools) —
/// with groups in order of first appearance. A string-dict column groups
/// by dictionary code, looking a key up once per code.
RowGroups group_rows(const study::ResultTable& table,
                     const std::string& group_by) {
  RowGroups g;
  const std::size_t n = table.rows.size();
  if (group_by.empty()) {
    g.keys.push_back("");
    g.members.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) g.members[0][i] = i;
    return g;
  }
  const std::size_t ci = table.column_index(group_by);
  const auto group_of = [&g](const std::string& key) {
    const auto it = std::find(g.keys.begin(), g.keys.end(), key);
    if (it != g.keys.end()) {
      return static_cast<std::size_t>(it - g.keys.begin());
    }
    g.keys.push_back(key);
    g.members.emplace_back();
    return g.keys.size() - 1;
  };
  if (table.rows.column_type(ci) == io::columnar::ColumnType::kStringDict) {
    constexpr std::size_t kUnseen = SIZE_MAX;
    const auto codes = table.rows.dict_codes(ci);
    const auto& dict = table.rows.dictionary();
    std::vector<std::size_t> group_of_code(dict.size(), kUnseen);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t& gi = group_of_code[codes[i]];
      if (gi == kUnseen) gi = group_of(dict[codes[i]]);
      g.members[gi].push_back(i);
    }
    return g;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const study::CellView cell = table.rows[i][ci];
    g.members[group_of(cell.is_string() ? cell.as_string() : cell.dump())]
        .push_back(i);
  }
  return g;
}

void require_complete(const study::ResultTable& table) {
  if (!table.is_complete()) {
    throw std::invalid_argument(
        "report: artifact holds shard " + table.shard.label() + " of '" +
        table.name + "' — merge all " + std::to_string(table.shard.count) +
        " shards (varbench merge) before reporting");
  }
}

std::uint64_t report_seed(const study::ResultTable& table,
                          const ReportSpec& spec) {
  return spec.seed != 0 ? spec.seed
                        : rngx::derive_seed(table.seed, "report");
}

/// Every summary owns an RNG stream derived from (master, kind, group,
/// column), so results are independent of which other columns/groups the
/// spec selects and of the order they are computed in.
rngx::Rng stream_for(std::uint64_t master, std::string_view kind,
                     std::string_view group, std::string_view column) {
  std::string tag{kind};
  tag += '|';
  tag += group;
  tag += '|';
  tag += column;
  return rngx::Rng{rngx::derive_seed(master, tag)};
}

ColumnSummary summarize_values(const exec::ExecContext& ctx,
                               const std::vector<double>& values,
                               std::string group, std::string column,
                               std::size_t missing, const ReportSpec& spec,
                               std::uint64_t master) {
  ColumnSummary s;
  s.group = std::move(group);
  s.column = std::move(column);
  s.n = values.size();
  s.missing = missing;
  if (values.empty()) return s;
  const stats::Moments m = stats::moments(values);
  s.mean = m.mean;
  s.stddev = m.stddev;
  s.min = m.min;
  s.max = m.max;
  s.median = stats::median(values);
  if (has_estimator(spec, "ci") && values.size() >= 3) {
    rngx::Rng rng = stream_for(master, "ci", s.group, s.column);
    const double alpha = 1.0 - spec.confidence;
    s.ci_mean = spec.ci_method == "bca"
                    ? stats::bca_bootstrap_ci(ctx, values, rng,
                                              spec.resamples, alpha)
                    : stats::percentile_bootstrap_ci(ctx, values, rng,
                                                     spec.resamples, alpha);
  }
  if (has_estimator(spec, "normality") && values.size() >= 3 &&
      values.size() <= 5000) {
    try {
      s.normality = stats::shapiro_wilk(values);
    } catch (const std::invalid_argument&) {
      // constant sample: the test is undefined, the flag stays absent
    }
  }
  return s;
}

ComparisonSummary compare_values(const exec::ExecContext& ctx,
                                 const std::string& column,
                                 const std::string& label_a,
                                 const std::vector<double>& a,
                                 const std::string& label_b,
                                 const std::vector<double>& b,
                                 const ReportSpec& spec,
                                 std::uint64_t master) {
  ComparisonSummary c;
  c.column = column;
  c.label_a = label_a;
  c.label_b = label_b;
  c.n_a = a.size();
  c.n_b = b.size();
  if (a.empty() || b.empty()) return c;
  c.mean_a = stats::mean(a);
  c.mean_b = stats::mean(b);
  c.paired = a.size() == b.size();
  const std::string pair_tag = label_a + ">" + label_b;
  if (c.paired) {
    rngx::Rng rng = stream_for(master, "pab", pair_tag, column);
    const auto r = stats::test_probability_of_outperforming(
        ctx, a, b, rng, spec.gamma, spec.resamples, 1.0 - spec.confidence);
    c.p_a_greater_b = r.p_a_greater_b;
    c.ci = r.ci;
    c.conclusion = std::string{stats::to_string(r.conclusion)};
    rngx::Rng perm_rng = stream_for(master, "perm", pair_tag, column);
    c.permutation_p =
        stats::paired_permutation_test(ctx, a, b, perm_rng, spec.permutations)
            .p_value;
  } else {
    c.p_a_greater_b = stats::mann_whitney_u(a, b).prob_a_greater;
    rngx::Rng perm_rng = stream_for(master, "perm", pair_tag, column);
    c.permutation_p =
        stats::permutation_test_mean_diff(ctx, a, b, perm_rng,
                                          spec.permutations)
            .p_value;
  }
  return c;
}

}  // namespace

std::vector<std::string> resolve_columns(const study::ResultTable& table,
                                         const ReportSpec& spec) {
  std::vector<std::string> out;
  if (!spec.columns.empty()) {
    for (const auto& name : spec.columns) {
      const std::size_t ci = table.column_index(name);  // throws when absent
      if (!column_is_numeric(table, ci)) {
        throw io::JsonError("report: selected column '" + name +
                            "' is not numeric");
      }
      out.push_back(name);
    }
    return out;
  }
  for (std::size_t ci = 0; ci < table.columns.size(); ++ci) {
    const std::string& name = table.columns[ci];
    if (is_index_column(name) || name == spec.group_by) continue;
    if (column_is_numeric(table, ci)) out.push_back(name);
  }
  if (out.empty()) {
    throw io::JsonError(
        "report: no numeric data columns in '" + table.name +
        "' — select columns explicitly with the spec's 'columns' list");
  }
  return out;
}

Report summarize(const exec::ExecContext& ctx, const LoadedArtifact& artifact,
                 const ReportSpec& spec) {
  const study::ResultTable& table = artifact.table;
  require_complete(table);
  const auto columns = resolve_columns(table, spec);
  const auto groups = group_rows(table, spec.group_by);
  const std::uint64_t master = report_seed(table, spec);

  Report report;
  report.title = table.name;
  report.seed = table.seed;
  report.rows = table.rows.size();
  report.spec = spec;

  // Values per (group, column), reused by the comparison pass.
  std::vector<std::vector<std::vector<double>>> values(groups.keys.size());
  for (std::size_t gi = 0; gi < groups.keys.size(); ++gi) {
    values[gi].resize(columns.size());
    for (std::size_t ci = 0; ci < columns.size(); ++ci) {
      std::size_t missing = 0;
      values[gi][ci] = numeric_values(table, table.column_index(columns[ci]),
                                      groups.members[gi], &missing);
      report.columns.push_back(summarize_values(
          ctx, values[gi][ci], groups.keys[gi], columns[ci], missing, spec,
          master));
    }
  }
  if (groups.keys.size() == 2) {
    for (std::size_t ci = 0; ci < columns.size(); ++ci) {
      report.comparisons.push_back(compare_values(
          ctx, columns[ci], groups.keys[0], values[0][ci], groups.keys[1],
          values[1][ci], spec, master));
    }
  }
  return report;
}

Report summarize_compare(const exec::ExecContext& ctx, const LoadedArtifact& a,
                         const LoadedArtifact& b, const ReportSpec& spec) {
  require_complete(a.table);
  require_complete(b.table);
  ReportSpec flat = spec;
  flat.group_by.clear();  // the two artifacts are the groups
  const auto columns_a = resolve_columns(a.table, flat);
  const std::uint64_t master = report_seed(a.table, flat);

  Report report;
  report.title = a.table.name + " vs " + b.table.name;
  report.seed = a.table.seed;
  report.rows = a.table.rows.size() + b.table.rows.size();
  report.spec = flat;

  std::vector<std::size_t> rows_a(a.table.rows.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) rows_a[i] = i;
  std::vector<std::size_t> rows_b(b.table.rows.size());
  for (std::size_t i = 0; i < rows_b.size(); ++i) rows_b[i] = i;

  for (const auto& column : columns_a) {
    std::size_t missing_a = 0;
    const auto va = numeric_values(a.table, a.table.column_index(column),
                                   rows_a, &missing_a);
    report.columns.push_back(summarize_values(ctx, va, "A", column, missing_a,
                                              flat, master));
    if (!b.table.has_column(column)) continue;
    const std::size_t bi = b.table.column_index(column);
    if (!column_is_numeric(b.table, bi)) continue;
    std::size_t missing_b = 0;
    const auto vb = numeric_values(b.table, bi, rows_b, &missing_b);
    report.columns.push_back(summarize_values(ctx, vb, "B", column, missing_b,
                                              flat, master));
    report.comparisons.push_back(
        compare_values(ctx, column, "A", va, "B", vb, flat, master));
  }
  return report;
}

}  // namespace varbench::report
