// Fig. F.2 — HPO optimization curves: best-so-far validation and test risk
// per independent ξH seed, for each (task, algorithm) pair. The shardable
// unit is the seed; each seed emits exactly `budget` rows (padded with
// nulls if an algorithm stops early) so `seq` stays a dense enumeration.
#include <algorithm>
#include <span>
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
  // Inner split for the HPO objective.
  auto hpo_rng = seeds.rng_for(rngx::VariationSource::kHpo);
  std::vector<std::size_t> order(trainvalid.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  hpo_rng.shuffle(order);
  const std::size_t n_valid = order.size() / 4;
  const auto inner_valid = ml::subset(
      trainvalid, std::span<const std::size_t>{order.data(), n_valid});
  const auto inner_train = ml::subset(
      trainvalid, std::span<const std::size_t>{order.data() + n_valid,
                                               order.size() - n_valid});
  SeedCurves out;
  double best_valid = 1e9;
  double test_at_best = 1e9;
  const hpo::Objective objective = [&](const hpo::ParamPoint& lambda) {
    const double valid_risk =
        1.0 - cs.pipeline->train_and_evaluate(inner_train, inner_valid,
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
  ResultTable t;
  t.columns = {"seq", "task", "algo", "seed", "iter", "valid", "test"};
  const std::size_t budget = spec.figure.budget;
  GroupSeq gs;
  for (const auto& task : resolve_tasks(spec)) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    for (const auto& algo_name : spec.figure.hpo_algorithms) {
      const auto algo = hpo::make_hpo_algorithm(algo_name);
      const auto slice = slice_of(spec, spec.repetitions);
      const auto per_seed = exec::parallel_replicate_range<SeedCurves>(
          exec_of(spec), slice,
          rngx::derive_seed(spec.seed, task + "/" + algo_name), "figF2_seed",
          [&](std::size_t, rngx::Rng& seed_rng) {
            return run_one_seed(cs, *algo, budget, seed_rng);
          });
      const std::size_t start = gs.enter(spec.repetitions, budget);
      for (std::size_t j = 0; j < per_seed.size(); ++j) {
        const std::size_t seed_index = slice.begin + j;
        const SeedCurves& curves = per_seed[j];
        for (std::size_t iter = 0; iter < budget; ++iter) {
          // Algorithms that stop before exhausting the budget pad with
          // nulls so every seed contributes exactly `budget` rows.
          Row row{Cell{gs.seq(start, seed_index, iter)}, Cell{task},
                  Cell{algo_name}, Cell{seed_index}, Cell{iter}};
          if (iter < curves.valid.size()) {
            row.push_back(Cell{curves.valid[iter]});
            row.push_back(Cell{curves.test[iter]});
          } else {
            row.push_back(Cell{});
            row.push_back(Cell{});
          }
          t.add_row(std::move(row));
        }
      }
    }
  }
  return t;
}

void summarize_figF2(const ResultTable& t, std::FILE* out) {
  const std::size_t budget = t.spec.value().figure.budget;
  std::vector<std::size_t> checkpoints{1, std::max<std::size_t>(1, budget / 4),
                                       std::max<std::size_t>(1, budget / 2),
                                       std::max<std::size_t>(1, 3 * budget / 4),
                                       budget};
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());
  const std::size_t task_col = t.column_index("task");
  const std::size_t algo_col = t.column_index("algo");
  const std::size_t iter_col = t.column_index("iter");
  const std::size_t valid_col = t.column_index("valid");
  const std::size_t test_col = t.column_index("test");
  // (task, algo) groups in first-appearance order.
  std::vector<std::pair<std::string, std::string>> groups;
  for (const auto& row : t.rows) {
    std::pair<std::string, std::string> key{row[task_col].as_string(),
                                            row[algo_col].as_string()};
    if (groups.empty() || groups.back() != key) groups.push_back(key);
  }
  std::string task;
  for (const auto& [group_task, algo] : groups) {
    if (group_task != task) {
      task = group_task;
      std::fprintf(out, "\n%s (risk = 1 - metric)\n", task.c_str());
      std::fprintf(out, "  %-22s", "algorithm");
      for (const std::size_t c : checkpoints) {
        std::fprintf(out, "      iter %3zu", c);
      }
      std::fprintf(out, "\n");
    }
    for (const auto* which : {"valid", "test"}) {
      const std::size_t value_col =
          std::string_view{which} == "valid" ? valid_col : test_col;
      std::fprintf(out, "  %-22s",
                   (algo + " [" + which + "]").c_str());
      for (const std::size_t c : checkpoints) {
        std::vector<double> at;
        for (const auto& row : t.rows) {
          if (row[task_col].as_string() != task ||
              row[algo_col].as_string() != algo ||
              row[iter_col].as_uint64() != c - 1 ||
              row[value_col].is_null()) {
            continue;
          }
          at.push_back(row[value_col].as_double());
        }
        if (at.empty()) {
          std::fprintf(out, " %13s", "-");
        } else {
          std::fprintf(out, " %6.3f±%.3f", stats::mean(at),
                       stats::stddev(at));
        }
      }
      std::fprintf(out, "\n");
    }
  }
  std::fprintf(out,
               "\nShape check vs paper: all algorithms reach similar final "
               "valid risk;\nthe across-seed std (the ±) does not keep "
               "shrinking with more\niterations — HPO variance would not "
               "vanish with larger budgets.\n");
}

}  // namespace varbench::study::figures
