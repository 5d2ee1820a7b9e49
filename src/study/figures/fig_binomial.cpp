// Fig. 2 — error due to data sampling: bootstrap-measured accuracy spread
// per task vs the binomial model √(p(1−p)/n'). Raw rows are one bootstrap
// replicate each (per-index streams → shardable); the analytic theory
// table is derived at summary time.
#include "src/casestudies/calibration.h"
#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/rngx/variation.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

ResultTable run_fig02(const StudySpec& spec) {
  const auto studies = task_case_studies(spec);
  RowPlan rows{spec, {"task", "rep", "test_size", "measure"}};
  struct Point {
    std::size_t test_size = 0;
    double measure = 0.0;
  };
  for (const auto& cs : studies) {
    rows.replicates<Point>(
        spec.repetitions, 1, rngx::derive_seed(spec.seed, cs.id), "fig02_rep",
        [&cs, defaults = cs.pipeline->default_params()](std::size_t,
                                                        rngx::Rng& rng) {
          const rngx::VariationSeeds base;
          const auto seeds =
              base.with_randomized(rngx::VariationSource::kDataSplit, rng);
          auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
          const auto split = cs.splitter->split(*cs.pool, split_rng);
          const auto [train, test] = core::materialize(*cs.pool, split);
          return Point{split.test.size(),
                       cs.pipeline->train_and_evaluate(train, test, defaults,
                                                       seeds)};
        },
        [task = cs.id](std::size_t rep, const Point& p, std::size_t) {
          return Row{Cell{task}, Cell{rep}, Cell{p.test_size},
                     Cell{p.measure}};
        });
  }
  return rows.run();
}

std::vector<ResultTable> summarize_fig02(const ResultTable& t) {
  ResultTable theory =
      summary_block("theory: binomial std vs test-set size",
                    {"n'", "accuracy", "binomial std %"});
  for (const std::size_t n : {100, 1000, 10000, 100000, 1000000}) {
    for (const double acc : {0.66, 0.91, 0.95}) {
      theory.add_row({Cell{n}, Cell{acc},
                      Cell{100.0 * stats::binomial_accuracy_std(
                                       acc, static_cast<double>(n))}});
    }
  }

  ResultTable practice = summary_block(
      "practice: bootstrap-measured std on the case studies",
      {"task", "n'", "measure %", "empirical std %", "binomial model %"});
  for (const RowGroup& task : group_rows(t, {"task"})) {
    const auto measures = task.values("measure");
    const double test_size = stats::mean(task.values("test_size"));
    const double acc = stats::mean(measures);
    practice.add_row(
        {Cell{task.cell("task").as_string()}, Cell{test_size},
         Cell{100.0 * acc}, Cell{100.0 * stats::stddev(measures)},
         Cell{100.0 * stats::binomial_accuracy_std(acc, test_size)}});
  }

  ResultTable paper = summary_block(
      "paper reference points (test sizes of the original tasks)",
      {"task", "n'", "binomial std %"});
  for (const auto& c : casestudies::paper_calibrations()) {
    if (c.metric != "accuracy") continue;
    paper.add_row({Cell{c.paper_task}, Cell{c.paper_test_size},
                   Cell{100.0 * stats::binomial_accuracy_std(
                                    c.mu, static_cast<double>(
                                              c.paper_test_size))}});
  }
  return {std::move(theory), std::move(practice), std::move(paper)};
}

}  // namespace varbench::study::figures
