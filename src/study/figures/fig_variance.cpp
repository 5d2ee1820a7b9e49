// The variance study kind (one case study), Fig. 1 (variance decomposition
// across case studies) and Fig. G.3 (per-source normality): all drive the
// core variance-study engine, emitting raw per-repetition measures through
// one group per probe. Shard slices pass straight through to the engine's
// shard_index/shard_count support; the G.3 "Altogether" group fans out on
// its own per-index streams. A multi-task figure adds every task's ranges
// to one plan.
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

/// One group per probe of `planned`, in its order, each over the spec's
/// repetitions (its ξH probes over `hpo_repetitions`): one row per measure
/// holding the `lead` cells, source, rep and measure. A probe whose
/// measures do not cover its slice throws std::out_of_range.
void variance_groups(RowPlan& rows, const StudySpec& spec, const Row& lead,
                     const core::PlannedVarianceStudy& planned,
                     std::size_t hpo_repetitions) {
  for (const auto& probe : planned.rows) {
    const std::size_t units = probe.source == rngx::VariationSource::kHpo
                                  ? hpo_repetitions
                                  : spec.repetitions;
    rows.group(units, 1,
               [lead, probe, begin = rows.slice(units).begin](std::size_t rep,
                                                              std::size_t) {
                 // A repeated base fit's one measure stands for every rep.
                 const double measure =
                     probe.measures->at(probe.repeat > 0 ? 0 : rep - begin);
                 Row cells = lead;
                 cells.insert(cells.end(), {Cell{probe.label}, Cell{rep},
                                            Cell{measure}});
                 return cells;
               });
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
  RowPlan rows{spec, {"source", "rep", "measure"}};
  variance_groups(rows, spec, {},
                  core::add_variance_study(rows.plan(), *cs.pipeline,
                                           *cs.pool, *cs.splitter, cfg,
                                           master),
                  cfg.hpo_repetitions);
  return rows.run();
}

std::vector<ResultTable> summarize_variance(const ResultTable& t) {
  return {sources_block("variance per source", group_rows(t, {"source"}))};
}

// ---------------------------------------------------------------- fig01

ResultTable run_fig01(const StudySpec& spec) {
  const std::size_t hpo_reps = spec.resolved_hpo_repetitions();
  const auto studies = task_case_studies(spec);
  RowPlan rows{spec, {"task", "source", "rep", "measure"}};
  for (const auto& cs : studies) {
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.hpo_algorithms = spec.figure.hpo_algorithms;
    cfg.hpo_repetitions = hpo_reps;
    cfg.hpo_budget = spec.figure.hpo_budget;
    cfg.include_numerical_noise = true;
    rngx::Rng master{rngx::derive_seed(spec.seed, cs.id)};
    variance_groups(rows, spec, {Cell{cs.id}},
                    core::add_variance_study(rows.plan(), *cs.pipeline,
                                             *cs.pool, *cs.splitter, cfg,
                                             master),
                    hpo_reps);
  }
  return rows.run();
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
  RowPlan rows{spec, {"task", "source", "rep", "measure"}};
  for (const auto& cs : studies) {
    core::VarianceStudyConfig cfg = variance_config(spec);
    cfg.include_numerical_noise = false;  // the figure's source set
    rngx::Rng master{rngx::derive_seed(spec.seed, cs.id)};
    variance_groups(rows, spec, {Cell{cs.id}},
                    core::add_variance_study(rows.plan(), *cs.pipeline,
                                             *cs.pool, *cs.splitter, cfg,
                                             master),
                    /*hpo_repetitions=*/0);

    // "Altogether": every learning ξO source randomized jointly, as in the
    // figure's last row, on per-index streams.
    rows.replicates<double>(
        spec.repetitions, 1,
        rngx::derive_seed(spec.seed, cs.id + ":altogether"),
        "figG3_altogether",
        [&cs, defaults = cs.pipeline->default_params()](std::size_t,
                                                        rngx::Rng& rng) {
          const rngx::VariationSeeds base;
          const auto seeds =
              base.with_randomized_set(rngx::kLearningSources, rng);
          return core::measure_with_params(*cs.pipeline, *cs.pool,
                                           *cs.splitter, defaults, seeds);
        },
        [task = cs.id](std::size_t rep, double measure, std::size_t) {
          return Row{Cell{task}, Cell{"Altogether"}, Cell{rep},
                     Cell{measure}};
        });
  }
  return rows.run();
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
