// The variance study kind (one case study), Fig. 1 (variance decomposition
// across case studies) and Fig. G.3 (per-source normality): all drive the
// core variance-study engine, emitting raw per-repetition measures through
// one row emitter. Shard slices pass straight through to the engine's
// shard_index/shard_count support; the G.3 "Altogether" group fans out on
// its own per-index streams. A multi-task figure adds every task's ranges
// to one plan and emits its rows after the plan has run.
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

/// A variance-sources block over one study's rows grouped by source: each
/// source's mean, std, and std over the data-bootstrap row's std (0 when
/// there is no bootstrap spread).
ResultTable sources_block(std::string name,
                          const std::vector<RowGroup>& sources) {
  double boot = 0.0;
  for (const RowGroup& g : sources) {
    if (g.cell("source").as_string() == "Data (bootstrap)") {
      boot = stats::stddev(g.values("measure"));
    }
  }
  ResultTable block = summary_block(std::move(name),
                                    {"source", "mean", "std", "std/bootstrap"});
  for (const RowGroup& g : sources) {
    const auto measures = g.values("measure");
    const double stddev = stats::stddev(measures);
    block.add_row({Cell{g.cell("source").as_string()},
                   Cell{stats::mean(measures)}, Cell{stddev},
                   Cell{boot > 0.0 ? stddev / boot : 0.0}});
  }
  return block;
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

std::vector<ResultTable> summarize_variance(const ResultTable& t) {
  return {sources_block("variance per source", group_rows(t, {"source"}))};
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

std::vector<ResultTable> summarize_fig01(const ResultTable& t) {
  std::vector<ResultTable> blocks;
  for (const RowGroup& task : group_rows(t, {"task"})) {
    blocks.push_back(
        sources_block(task.cell("task").as_string(), task.by({"source"})));
  }
  return blocks;
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

std::vector<ResultTable> summarize_figG3(const ResultTable& t) {
  ResultTable block = summary_block("Shapiro-Wilk per (task, source)",
                                    {"task", "source", "W", "p-value",
                                     "verdict"});
  for (const RowGroup& g : group_rows(t, {"task", "source"})) {
    const auto measures = g.values("measure");
    // W and p stay null where the test is undefined: a constant group, or
    // a size outside its domain (as report's normality estimator).
    Cell w;
    Cell p;
    Cell verdict;
    if (stats::min_value(measures) == stats::max_value(measures)) {
      verdict = Cell{"constant"};
    } else if (measures.size() < 3) {
      verdict = Cell{"n < 3"};
    } else if (measures.size() > 5000) {
      verdict = Cell{"n > 5000"};
    } else {
      const auto sw = stats::shapiro_wilk(measures);
      w = Cell{sw.w_statistic};
      p = Cell{sw.p_value};
      if (sw.p_value < 0.05) verdict = Cell{"non-normal"};
    }
    block.add_row({Cell{g.cell("task").as_string()},
                   Cell{g.cell("source").as_string()}, w, p, verdict});
  }
  return {std::move(block)};
}

}  // namespace varbench::study::figures
