// Fig. 1 (variance decomposition across case studies) and Fig. G.3
// (per-source normality): both drive the core variance-study engine per
// task, emitting raw per-repetition measures. Shard slices pass straight
// through to the engine's shard_index/shard_count support; the G.3
// "Altogether" group fans out on its own per-index streams.
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/core/variance_study.h"
#include "src/rngx/variation.h"
#include "src/stats/descriptive.h"
#include "src/stats/shapiro_wilk.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

/// Group the (task, source) rows of a variance-style table in
/// first-appearance order — tables are seq-ordered, so groups are
/// contiguous in complete artifacts.
struct SourceGroup {
  std::string task;
  std::string source;
  std::vector<double> measures;
};

std::vector<SourceGroup> source_groups(const ResultTable& t) {
  const std::size_t task_col = t.column_index("task");
  const std::size_t source_col = t.column_index("source");
  const std::size_t measure_col = t.column_index("measure");
  std::vector<SourceGroup> groups;
  for (const auto& row : t.rows) {
    const std::string task = row[task_col].as_string();
    const std::string source = row[source_col].as_string();
    if (groups.empty() || groups.back().task != task ||
        groups.back().source != source) {
      groups.push_back(SourceGroup{task, source, {}});
    }
    groups.back().measures.push_back(row[measure_col].as_double());
  }
  return groups;
}

core::VarianceStudyConfig variance_config(const StudySpec& spec) {
  core::VarianceStudyConfig cfg;
  cfg.repetitions = spec.repetitions;
  cfg.exec = exec_of(spec);
  cfg.shard_index = spec.shard.index;
  cfg.shard_count = spec.shard.count;
  return cfg;
}

/// Emit one engine result into the table, advancing the global seq
/// bookkeeping; shard slices of each source group land at their global
/// rep indices.
void emit_variance_rows(const StudySpec& spec, const std::string& task,
                        const core::VarianceStudyResult& result,
                        std::size_t hpo_repetitions, GroupSeq& gs,
                        ResultTable& t) {
  for (const auto& row : result.rows) {
    const std::size_t group_size = row.source == rngx::VariationSource::kHpo
                                       ? hpo_repetitions
                                       : spec.repetitions;
    const auto slice = slice_of(spec, group_size);
    if (row.measures.size() != slice.size()) {
      throw std::logic_error("figure variance runner: engine returned " +
                             std::to_string(row.measures.size()) +
                             " measures for a slice of " +
                             std::to_string(slice.size()));
    }
    const std::size_t start = gs.enter(group_size);
    for (std::size_t j = 0; j < row.measures.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      t.add_row({Cell{gs.seq(start, rep)}, Cell{task}, Cell{row.label},
                 Cell{rep}, Cell{row.measures[j]}});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- fig01

ResultTable run_fig01(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "task", "source", "rep", "measure"};
  GroupSeq gs;
  const std::size_t hpo_reps = spec.resolved_hpo_repetitions();
  for (const auto& task : resolve_tasks(spec)) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.hpo_algorithms = spec.figure.hpo_algorithms;
    cfg.hpo_repetitions = hpo_reps;
    cfg.hpo_budget = spec.figure.hpo_budget;
    cfg.include_numerical_noise = true;
    rngx::Rng master{rngx::derive_seed(spec.seed, task)};
    const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                                 *cs.splitter, cfg, master);
    emit_variance_rows(spec, task, result, hpo_reps, gs, t);
  }
  return t;
}

void summarize_fig01(const ResultTable& t, std::FILE* out) {
  const auto groups = source_groups(t);
  std::string task;
  double boot = 0.0;
  for (const auto& g : groups) {
    if (g.task != task) {
      task = g.task;
      boot = 0.0;
      for (const auto& other : groups) {
        if (other.task == task && other.source == "Data (bootstrap)") {
          boot = stats::stddev(other.measures);
        }
      }
      std::fprintf(out, "\n%s\n", task.c_str());
      std::fprintf(out, "  %-22s %10s %10s %14s\n", "source", "mean", "std",
                   "std/bootstrap");
    }
    const double stddev = stats::stddev(g.measures);
    std::fprintf(out, "  %-22s %10.4f %10.4f %14.2f\n", g.source.c_str(),
                 stats::mean(g.measures), stddev,
                 boot > 0.0 ? stddev / boot : 0.0);
  }
  std::fprintf(out,
               "\nShape check vs paper: bootstrap row should have the largest "
               "std in\nmost tasks, and the HPO rows should be comparable to "
               "the weight-init\nrow (Fig. 1's center-of-mass).\n");
}

// ---------------------------------------------------------------- figG3

ResultTable run_figG3(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "task", "source", "rep", "measure"};
  GroupSeq gs;
  for (const auto& task : resolve_tasks(spec)) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.include_numerical_noise = false;  // the figure's source set
    rngx::Rng master{rngx::derive_seed(spec.seed, task)};
    const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                                 *cs.splitter, cfg, master);
    emit_variance_rows(spec, task, result, /*hpo_repetitions=*/0, gs, t);

    // "Altogether": every learning ξO source randomized jointly, as in the
    // figure's last row, on per-index streams.
    const auto defaults = cs.pipeline->default_params();
    const auto slice = slice_of(spec, spec.repetitions);
    const auto measures = exec::parallel_replicate_range<double>(
        exec_of(spec), slice,
        rngx::derive_seed(spec.seed, task + ":altogether"),
        "figG3_altogether", [&](std::size_t, rngx::Rng& rng) {
          const rngx::VariationSeeds base;
          const auto seeds =
              base.with_randomized_set(rngx::kLearningSources, rng);
          return core::measure_with_params(*cs.pipeline, *cs.pool,
                                           *cs.splitter, defaults, seeds);
        });
    const std::size_t start = gs.enter(spec.repetitions);
    for (std::size_t j = 0; j < measures.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      t.add_row({Cell{gs.seq(start, rep)}, Cell{task}, Cell{"Altogether"},
                 Cell{rep}, Cell{measures[j]}});
    }
  }
  return t;
}

void summarize_figG3(const ResultTable& t, std::FILE* out) {
  std::fprintf(out, "  %-18s %-22s %8s %8s\n", "task", "source", "W",
               "p-value");
  for (const auto& g : source_groups(t)) {
    if (stats::min_value(g.measures) == stats::max_value(g.measures)) {
      std::fprintf(out, "  %-18s %-22s %8s %8s (constant)\n", g.task.c_str(),
                   g.source.c_str(), "-", "-");
      continue;
    }
    const auto sw = stats::shapiro_wilk(g.measures);
    std::fprintf(out, "  %-18s %-22s %8.4f %8.4f%s\n", g.task.c_str(),
                 g.source.c_str(), sw.w_statistic, sw.p_value,
                 sw.p_value < 0.05 ? "  *non-normal" : "");
  }
  std::fprintf(out,
               "\nShape check vs paper: most (task, source) cells accept "
               "normality at\np>0.05; small-test-set tasks may reject due to "
               "discretized accuracies.\n");
}

}  // namespace varbench::study::figures
