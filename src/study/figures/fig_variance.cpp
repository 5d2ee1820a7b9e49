// The variance study kind (one case study), Fig. 1 (variance decomposition
// across case studies) and Fig. G.3 (per-source normality): all drive the
// core variance-study engine, emitting raw per-repetition measures through
// one row emitter. Shard slices pass straight through to the engine's
// shard_index/shard_count support; the G.3 "Altogether" group fans out on
// its own per-index streams. A multi-task figure adds every task's ranges
// to one plan and emits its rows after the plan has run.
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
/// bookkeeping: one row per measure holding seq, the `lead` cells, source,
/// rep and measure. Shard slices of each source group land at their global
/// rep indices.
void emit_variance_rows(const StudySpec& spec, const Row& lead,
                        const core::VarianceStudyResult& result,
                        std::size_t hpo_repetitions, GroupSeq& gs,
                        ResultTable& t) {
  for (const auto& row : result.rows) {
    const std::size_t group_size = row.source == rngx::VariationSource::kHpo
                                       ? hpo_repetitions
                                       : spec.repetitions;
    const auto slice = slice_of(spec, group_size);
    if (row.measures.size() != slice.size()) {
      throw std::logic_error("variance runner: engine returned " +
                             std::to_string(row.measures.size()) +
                             " measures for a slice of " +
                             std::to_string(slice.size()));
    }
    const std::size_t start = gs.enter(group_size);
    for (std::size_t j = 0; j < row.measures.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      Row cells{Cell{gs.seq(start, rep)}};
      cells.insert(cells.end(), lead.begin(), lead.end());
      cells.insert(cells.end(),
                   {Cell{row.label}, Cell{rep}, Cell{row.measures[j]}});
      t.add_row(std::move(cells));
    }
  }
}

}  // namespace

// ------------------------------------------------------------- variance

ResultTable run_variance(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  core::VarianceStudyConfig cfg = variance_config(spec);
  cfg.hpo_algorithms = spec.figure.hpo_algorithms;
  cfg.hpo_repetitions = spec.resolved_hpo_repetitions();
  cfg.hpo_budget = spec.figure.hpo_budget;
  cfg.include_numerical_noise = spec.figure.include_numerical_noise;
  rngx::Rng master{spec.seed};
  const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                               *cs.splitter, cfg, master);
  ResultTable t;
  t.columns = {"seq", "source", "rep", "measure"};
  GroupSeq gs;
  emit_variance_rows(spec, {}, result, cfg.hpo_repetitions, gs, t);
  return t;
}

void summarize_variance(const ResultTable& t, std::FILE* out) {
  const std::size_t source_col = t.column_index("source");
  const std::size_t measure_col = t.column_index("measure");
  // Group by source label in first-appearance (engine) order.
  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (const auto& row : t.rows) {
    const std::string label = row[source_col].as_string();
    if (groups.empty() || groups.back().first != label) {
      groups.emplace_back(label, std::vector<double>{});
    }
    groups.back().second.push_back(row[measure_col].as_double());
  }
  double boot = 0.0;
  for (const auto& [label, measures] : groups) {
    if (label == "Data (bootstrap)") boot = stats::stddev(measures);
  }
  std::fprintf(out, "%-22s %10s %10s %14s\n", "source", "mean", "std",
               "std/bootstrap");
  for (const auto& [label, measures] : groups) {
    const double mean = stats::mean(measures);
    const double stddev = stats::stddev(measures);
    std::fprintf(out, "%-22s %10.4f %10.4f %14.2f\n", label.c_str(), mean,
                 stddev, boot > 0.0 ? stddev / boot : 0.0);
  }
}

// ---------------------------------------------------------------- fig01

ResultTable run_fig01(const StudySpec& spec) {
  const std::size_t hpo_reps = spec.resolved_hpo_repetitions();
  const auto studies = task_case_studies(spec);
  // Every task's probes run as one plan; rows follow in task order.
  exec::ReplicatePlan plan;
  std::vector<core::PlannedVarianceStudy> planned;
  for (const auto& cs : studies) {
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.hpo_algorithms = spec.figure.hpo_algorithms;
    cfg.hpo_repetitions = hpo_reps;
    cfg.hpo_budget = spec.figure.hpo_budget;
    cfg.include_numerical_noise = true;
    rngx::Rng master{rngx::derive_seed(spec.seed, cs.id)};
    planned.push_back(core::add_variance_study(
        plan, *cs.pipeline, *cs.pool, *cs.splitter, cfg, master));
  }
  plan.run(exec_of(spec));
  ResultTable t;
  t.columns = {"seq", "task", "source", "rep", "measure"};
  GroupSeq gs;
  for (std::size_t k = 0; k < studies.size(); ++k) {
    emit_variance_rows(spec, {Cell{studies[k].id}}, planned[k].result(),
                       hpo_reps, gs, t);
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
  const auto studies = task_case_studies(spec);
  const auto slice = slice_of(spec, spec.repetitions);
  // Every task's probes and its "Altogether" group run as one plan; rows
  // follow in task order.
  exec::ReplicatePlan plan;
  std::vector<core::PlannedVarianceStudy> planned;
  std::vector<const std::vector<double>*> altogether;
  for (const auto& cs : studies) {
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.include_numerical_noise = false;  // the figure's source set
    rngx::Rng master{rngx::derive_seed(spec.seed, cs.id)};
    planned.push_back(core::add_variance_study(
        plan, *cs.pipeline, *cs.pool, *cs.splitter, cfg, master));

    // "Altogether": every learning ξO source randomized jointly, as in the
    // figure's last row, on per-index streams.
    altogether.push_back(&plan.add<double>(
        slice, rngx::derive_seed(spec.seed, cs.id + ":altogether"),
        "figG3_altogether",
        [&cs, defaults = cs.pipeline->default_params()](std::size_t,
                                                        rngx::Rng& rng) {
          const rngx::VariationSeeds base;
          const auto seeds =
              base.with_randomized_set(rngx::kLearningSources, rng);
          return core::measure_with_params(*cs.pipeline, *cs.pool,
                                           *cs.splitter, defaults, seeds);
        }));
  }
  plan.run(exec_of(spec));
  ResultTable t;
  t.columns = {"seq", "task", "source", "rep", "measure"};
  GroupSeq gs;
  for (std::size_t k = 0; k < studies.size(); ++k) {
    const std::string& task = studies[k].id;
    emit_variance_rows(spec, {Cell{task}}, planned[k].result(),
                       /*hpo_repetitions=*/0, gs, t);
    const std::vector<double>& measures = *altogether[k];
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
