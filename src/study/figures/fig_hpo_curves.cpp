// Fig. F.2 — HPO optimization curves: best-so-far validation and test risk
// per independent ξH seed, for each (task, algorithm) pair. The shardable
// unit is the seed; each seed emits exactly `budget` rows (padded with
// nulls if an algorithm stops early) so `seq` stays a dense enumeration.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/hpo/hpo.h"
#include "src/ml/dataset.h"
#include "src/rngx/variation.h"
#include "src/stats/descriptive.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

struct SeedCurves {
  std::vector<double> valid;
  std::vector<double> test;
};

/// One independent ξH seed's best-so-far curves, on its own RNG stream.
SeedCurves run_one_seed(const casestudies::CaseStudy& cs,
                        const hpo::HpoAlgorithm& algo, std::size_t budget,
                        rngx::Rng& seed_rng) {
  const rngx::VariationSeeds base;  // ξO fixed: variance is ξH-only
  const auto seeds =
      base.with_randomized(rngx::VariationSource::kHpo, seed_rng);
  auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
  const auto split = cs.splitter->split(*cs.pool, split_rng);
  const auto [trainvalid, test] = core::materialize(*cs.pool, split);
  // HOpt's inner split for the objective, as run_hpo makes it.
  auto hpo_rng = seeds.rng_for(rngx::VariationSource::kHpo);
  const core::InnerSplit inner = core::inner_split(trainvalid, hpo_rng);
  SeedCurves out;
  double best_valid = 1e9;
  double test_at_best = 1e9;
  const hpo::Objective objective = [&](const hpo::ParamPoint& lambda) {
    const double valid_risk =
        1.0 - cs.pipeline->train_and_evaluate(inner.train, inner.valid,
                                              lambda, seeds);
    if (valid_risk < best_valid) {
      best_valid = valid_risk;
      test_at_best = 1.0 - cs.pipeline->train_and_evaluate(trainvalid, test,
                                                           lambda, seeds);
    }
    out.valid.push_back(best_valid);
    out.test.push_back(test_at_best);
    return valid_risk;
  };
  (void)algo.optimize(cs.pipeline->search_space(), objective, budget,
                      hpo_rng);
  return out;
}

}  // namespace

ResultTable run_figF2(const StudySpec& spec) {
  const std::size_t budget = spec.figure.budget;
  const auto studies = task_case_studies(spec);
  RowPlan rows{spec, {"task", "algo", "seed", "iter", "valid", "test"}};
  for (const auto& cs : studies) {
    for (const auto& algo_name : spec.figure.hpo_algorithms) {
      const std::shared_ptr<const hpo::HpoAlgorithm> algo =
          hpo::make_hpo_algorithm(algo_name);
      rows.replicates<SeedCurves>(
          spec.repetitions, budget,
          rngx::derive_seed(spec.seed, cs.id + "/" + algo_name), "figF2_seed",
          [&cs, algo, budget](std::size_t, rngx::Rng& seed_rng) {
            return run_one_seed(cs, *algo, budget, seed_rng);
          },
          [task = cs.id, algo_name](std::size_t seed_index,
                                    const SeedCurves& curves,
                                    std::size_t iter) {
            // Algorithms that stop before exhausting the budget pad with
            // nulls so every seed contributes exactly `budget` rows.
            Row row{Cell{task}, Cell{algo_name}, Cell{seed_index},
                    Cell{iter}};
            if (iter < curves.valid.size()) {
              row.push_back(Cell{curves.valid[iter]});
              row.push_back(Cell{curves.test[iter]});
            } else {
              row.push_back(Cell{});
              row.push_back(Cell{});
            }
            return row;
          });
    }
  }
  return rows.run();
}

std::vector<ResultTable> summarize_figF2(const ResultTable& t) {
  const std::size_t budget = t.spec.value().figure.budget;
  std::vector<std::size_t> checkpoints{1, std::max<std::size_t>(1, budget / 4),
                                       std::max<std::size_t>(1, budget / 2),
                                       std::max<std::size_t>(1, 3 * budget / 4),
                                       budget};
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());
  std::vector<ResultTable> blocks;
  for (const RowGroup& task : group_rows(t, {"task"})) {
    ResultTable block = summary_block(
        task.cell("task").as_string() + " (risk = 1 - metric)",
        {"algorithm", "iter", "valid mean", "valid std", "test mean",
         "test std"});
    for (const RowGroup& algo : task.by({"algo"})) {
      for (const RowGroup& iter : algo.by({"iter"})) {
        const std::size_t at = iter.cell("iter").as_uint64() + 1;
        if (std::find(checkpoints.begin(), checkpoints.end(), at) ==
            checkpoints.end()) {
          continue;
        }
        Row row{Cell{algo.cell("algo").as_string()}, Cell{at}};
        // Across-seed mean and std; a checkpoint every seed's curve
        // stopped before stays null.
        for (const char* curve : {"valid", "test"}) {
          const auto at_iter = iter.values(curve);
          row.push_back(at_iter.empty() ? Cell{} : Cell{stats::mean(at_iter)});
          row.push_back(at_iter.empty() ? Cell{}
                                        : Cell{stats::stddev(at_iter)});
        }
        block.add_row(row);
      }
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace varbench::study::figures
