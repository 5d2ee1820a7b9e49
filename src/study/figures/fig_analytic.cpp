// The analytic figure kinds — no Monte-Carlo loop, a fixed enumeration of
// grid rows computed exactly: Fig. 3 (published SOTA increments), Fig. 4
// (estimator fit-count costs), Fig. C.1 (Noether sample sizes), and the
// Appendix D search-space tables. `repetitions` is pinned to 1; the row
// enumeration itself shards (every row is a pure function of its index).
#include <cmath>

#include "src/casestudies/calibration.h"
#include "src/casestudies/registry.h"
#include "src/compare/error_rates.h"
#include "src/core/estimators.h"
#include "src/hpo/space.h"
#include "src/stats/distributions.h"
#include "src/stats/sample_size.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

// ---------------------------------------------------------------- fig03

ResultTable run_fig03(const StudySpec& spec) {
  const double z = stats::normal_quantile(0.95);
  // Build the full enumeration (cheap: static series), emit the slice.
  std::vector<Row> all;
  for (const auto& series : casestudies::sota_series()) {
    const double threshold = z * std::sqrt(2.0) * series.benchmark_sigma;
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      const auto& pt = series.points[i];
      Row row{Cell{series.task}, Cell{pt.year}, Cell{pt.accuracy}};
      if (i == 0) {
        row.push_back(Cell{});  // baseline: no increment
        row.push_back(Cell{series.benchmark_sigma});
        row.push_back(Cell{threshold});
        row.push_back(Cell{});
      } else {
        const double improvement =
            pt.accuracy - series.points[i - 1].accuracy;
        row.push_back(Cell{improvement});
        row.push_back(Cell{series.benchmark_sigma});
        row.push_back(Cell{threshold});
        row.push_back(Cell{
            static_cast<std::size_t>(improvement > threshold ? 1 : 0)});
      }
      all.push_back(std::move(row));
    }
  }
  RowPlan rows{spec, {"task", "year", "accuracy", "improvement", "sigma",
                      "threshold", "significant"}};
  const std::size_t n = all.size();
  rows.group(n, 1, [all = std::move(all)](std::size_t i, std::size_t) {
    return all[i];
  });
  return rows.run();
}

std::vector<ResultTable> summarize_fig03(const ResultTable& t) {
  const std::size_t year_col = t.column_index("year");
  const std::size_t acc_col = t.column_index("accuracy");
  const std::size_t imp_col = t.column_index("improvement");
  const std::size_t sigma_col = t.column_index("sigma");
  const std::size_t thr_col = t.column_index("threshold");
  std::vector<ResultTable> blocks;
  double sum_improvement = 0.0;
  double sum_sigma = 0.0;
  for (const RowGroup& task : group_rows(t, {"task"})) {
    ResultTable block = summary_block(
        task.cell("task").as_string(),
        {"year", "accuracy %", "improvement %", "benchmark sigma %",
         "significance threshold %", "verdict"});
    for (const std::size_t r : task.rows()) {
      const RowView row = t.rows[r];
      const double sigma = row[sigma_col].as_double();
      const double threshold = row[thr_col].as_double();
      Cell improvement;
      std::string verdict = "(baseline)";
      if (!row[imp_col].is_null()) {
        const double delta = row[imp_col].as_double();
        improvement = Cell{100.0 * delta};
        verdict = delta > threshold ? "significant" : "NON-significant";
        sum_improvement += delta;
        sum_sigma += sigma;
      }
      block.add_row({row[year_col].to_json(),
                     Cell{100.0 * row[acc_col].as_double()}, improvement,
                     Cell{100.0 * sigma}, Cell{100.0 * threshold},
                     Cell{verdict}});
    }
    blocks.push_back(std::move(block));
  }
  // delta = coefficient * sigma is the average-comparison threshold of
  // Fig. 6.
  ResultTable delta = summary_block(
      "delta calibration (Section 4.2)",
      {"mean improvement / sigma", "paper's regression coefficient"});
  delta.add_row({Cell{sum_sigma > 0.0 ? sum_improvement / sum_sigma : 0.0},
                 Cell{compare::kPublishedImprovementCoeff}});
  blocks.push_back(std::move(delta));
  return blocks;
}

// ---------------------------------------------------------------- fig04

ResultTable run_fig04(const StudySpec& spec) {
  RowPlan rows{spec, {"k", "T", "ideal_fits", "fixhopt_fits", "ratio"}};
  const auto& k_grid = spec.figure.k_grid;
  const auto& t_grid = spec.figure.t_grid;
  rows.group(k_grid.size() * t_grid.size(), 1,
             [&](std::size_t i, std::size_t) {
               const std::size_t k = k_grid[i / t_grid.size()];
               const std::size_t budget = t_grid[i % t_grid.size()];
               const std::size_t ideal = core::ideal_estimator_cost(k, budget);
               const std::size_t biased =
                   core::fix_hopt_estimator_cost(k, budget);
               return Row{Cell{k}, Cell{budget}, Cell{ideal}, Cell{biased},
                          Cell{static_cast<double>(ideal) /
                               static_cast<double>(biased)}};
             });
  return rows.run();
}

std::vector<ResultTable> summarize_fig04(const ResultTable& t) {
  ResultTable fits = summary_block(
      "estimator fit counts",
      {"k", "T", "IdealEst fits", "FixHOptEst fits", "ratio"});
  std::vector<std::size_t> cols;
  for (const char* name : {"k", "T", "ideal_fits", "fixhopt_fits", "ratio"}) {
    cols.push_back(t.column_index(name));
  }
  for (const RowView row : t.rows) {
    Row cells;
    for (const std::size_t c : cols) cells.push_back(row[c].to_json());
    fits.add_row(cells);
  }
  // Wall-clock ratios sit slightly below the fit ratio because HPO trials
  // train on the smaller inner split.
  ResultTable paper = summary_block(
      "paper's wall-clock vs our fit count",
      {"k", "T", "paper IdealEst h", "paper FixHOptEst h", "paper ratio",
       "fit-count ratio"});
  const auto ideal = static_cast<double>(core::ideal_estimator_cost(100, 200));
  const auto fixhopt =
      static_cast<double>(core::fix_hopt_estimator_cost(100, 200));
  paper.add_row({Cell{std::size_t{100}}, Cell{std::size_t{200}}, Cell{1070.0},
                 Cell{21.0}, Cell{1070.0 / 21.0}, Cell{ideal / fixhopt}});
  return {std::move(fits), std::move(paper)};
}

// ---------------------------------------------------------------- figC1

ResultTable run_figC1(const StudySpec& spec) {
  RowPlan rows{spec, {"gamma", "beta", "n_required"}};
  const auto& gamma_grid = spec.figure.gamma_grid;
  const auto& beta_grid = spec.figure.beta_grid;
  rows.group(gamma_grid.size() * beta_grid.size(), 1,
             [&](std::size_t i, std::size_t) {
               const double gamma = gamma_grid[i / beta_grid.size()];
               const double beta = beta_grid[i % beta_grid.size()];
               return Row{Cell{gamma}, Cell{beta},
                          Cell{stats::noether_sample_size(gamma, 0.05, beta)}};
             });
  return rows.run();
}

std::vector<ResultTable> summarize_figC1(const ResultTable& t) {
  ResultTable sizes = summary_block("Noether minimum sample size",
                                    {"gamma", "beta", "N", "paper N"});
  const std::size_t gamma_col = t.column_index("gamma");
  const std::size_t beta_col = t.column_index("beta");
  const std::size_t n_col = t.column_index("n_required");
  for (const RowView row : t.rows) {
    const double gamma = row[gamma_col].as_double();
    const double beta = row[beta_col].as_double();
    // The paper's recommendation: N = 29 at gamma = 0.75, alpha = beta =
    // 0.05.
    sizes.add_row({Cell{gamma}, Cell{beta}, row[n_col].to_json(),
                   gamma == 0.75 && beta == 0.05 ? Cell{std::size_t{29}}
                                                 : Cell{}});
  }
  ResultTable power = summary_block("power achieved at selected (N, gamma)",
                                    {"N", "gamma", "power %"});
  for (const std::size_t n : {10, 20, 29, 50, 100}) {
    for (const double g : {0.6, 0.7, 0.75, 0.8, 0.9}) {
      power.add_row({Cell{n}, Cell{g},
                     Cell{100.0 * stats::noether_power(n, g, 0.05)}});
    }
  }
  return {std::move(sizes), std::move(power)};
}

// --------------------------------------------------------------- tableD

ResultTable run_tableD(const StudySpec& spec) {
  // The shard unit is a task, whose row count is its number of search
  // dimensions, so the table keeps its own seq: a running count of every
  // task's rows.
  ResultTable t;
  t.columns = {"seq", "task", "param",   "scale_kind",
               "low", "high", "default", "integer"};
  const auto tasks = resolve_tasks(spec);
  const auto task_slice =
      exec::shard_subrange(tasks.size(), spec.shard.index, spec.shard.count);
  std::size_t seq = 0;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    // Every shard walks all tasks to keep the global seq offsets exact;
    // only in-slice tasks emit rows. Search spaces and defaults are
    // scale-invariant (scale only sizes data pools and epochs), so the
    // registry is queried at a minimal scale rather than materializing
    // every task's full pool on every shard.
    const auto cs = casestudies::make_case_study(tasks[ti], 0.05);
    const auto& dims = cs.pipeline->search_space().dims();
    if (ti < task_slice.begin || ti >= task_slice.end) {
      seq += dims.size();
      continue;
    }
    const auto defaults = cs.pipeline->default_params();
    for (const auto& dim : dims) {
      const auto it = defaults.find(dim.name);
      t.add_row({Cell{seq++}, Cell{tasks[ti]}, Cell{dim.name},
                 Cell{dim.scale == hpo::ScaleKind::kLog ? "log" : "linear"},
                 Cell{dim.lo}, Cell{dim.hi},
                 Cell{it != defaults.end() ? it->second : 0.0},
                 Cell{static_cast<std::size_t>(dim.integer ? 1 : 0)}});
    }
  }
  return t;
}

std::vector<ResultTable> summarize_tableD(const ResultTable& t) {
  std::vector<std::size_t> cols;
  for (const char* name : {"param", "scale_kind", "low", "high", "default"}) {
    cols.push_back(t.column_index(name));
  }
  const std::size_t integer_col = t.column_index("integer");
  std::vector<ResultTable> blocks;
  for (const RowGroup& task : group_rows(t, {"task"})) {
    ResultTable block = summary_block(
        task.cell("task").as_string(),
        {"hyperparameter", "scale", "low", "high", "default", "values"});
    for (const std::size_t r : task.rows()) {
      Row cells;
      for (const std::size_t c : cols) cells.push_back(t.rows[r][c].to_json());
      cells.push_back(
          Cell{t.rows[r][integer_col].as_uint64() != 0 ? "integer" : "real"});
      block.add_row(cells);
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace varbench::study::figures
