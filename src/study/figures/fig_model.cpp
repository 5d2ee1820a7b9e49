// The calibrated-model figures: Fig. 5 / H.4 (estimator standard error vs
// k) and Fig. H.5 (MSE decomposition). Both sample the §4.2 two-stage
// simulator on per-realization streams; rows are raw realization-level
// sufficient statistics, so the artifacts shard and every aggregate
// (stderr curves, bias/Var/ρ/MSE) is derived at summary time.
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/casestudies/calibration.h"
#include "src/compare/simulation.h"
#include "src/core/estimators.h"
#include "src/stats/descriptive.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

struct SubsetName {
  std::string_view label;
  core::RandomizeSubset subset;
};

constexpr SubsetName kSubsets[] = {
    {"fix_init", core::RandomizeSubset::kInit},
    {"fix_data", core::RandomizeSubset::kData},
    {"fix_all", core::RandomizeSubset::kAll},
};

}  // namespace

// ---------------------------------------------------------------- fig05

ResultTable run_fig05(const StudySpec& spec) {
  RowPlan rows{spec, {"task", "estimator", "k", "realization", "mean_measure"}};
  for (const auto& task : resolve_tasks(spec)) {
    const auto& calib = casestudies::calibration_for(task);
    for (const auto& [label, subset] : kSubsets) {
      const auto profile = calib.profile(subset);
      for (const std::size_t k : spec.figure.k_grid) {
        rows.replicates<double>(
            spec.repetitions, 1,
            rngx::derive_seed(spec.seed, task + "/" + std::string{label} +
                                             "/k" + std::to_string(k)),
            "fig05_realization",
            [profile, k](std::size_t, rngx::Rng& rng) {
              return stats::mean(compare::simulate_measures(
                  profile, compare::EstimatorKind::kBiased, 0.0, k, rng));
            },
            [task, label = std::string{label}, k](
                std::size_t r, double mean, std::size_t) {
              return Row{Cell{task}, Cell{label}, Cell{k}, Cell{r},
                         Cell{mean}};
            });
      }
    }
  }
  return rows.run();
}

std::vector<ResultTable> summarize_fig05(const ResultTable& t) {
  std::vector<std::string> columns{"k", "IdealEst"};
  for (const auto& [label, subset] : kSubsets) {
    const std::string name{core::to_string(subset)};
    columns.push_back(name + " analytic");
    columns.push_back(name + " simulated");
  }
  std::vector<ResultTable> blocks;
  ResultTable plateaus = summary_block(
      "plateau equivalents: FixHOptEst(k, subset) ~ IdealEst(plateau k)",
      {"task", "metric", "sigma_ideal", "Init plateau k", "Data plateau k",
       "All plateau k"});
  for (const RowGroup& task : group_rows(t, {"task"})) {
    const auto& calib =
        casestudies::calibration_for(task.cell("task").as_string());
    ResultTable block = summary_block(calib.paper_task, columns);
    for (const RowGroup& at_k : task.by({"k"})) {
      const auto k = static_cast<std::size_t>(at_k.cell("k").as_uint64());
      Row row{Cell{k},
              Cell{calib.sigma_ideal / std::sqrt(static_cast<double>(k))}};
      const auto estimators = at_k.by({"estimator"});
      for (const auto& [label, subset] : kSubsets) {
        std::vector<double> means;
        for (const RowGroup& est : estimators) {
          if (est.cell("estimator").as_string() == label) {
            means = est.values("mean_measure");
          }
        }
        row.push_back(Cell{std::sqrt(core::biased_estimator_variance(
            calib.sigma_ideal * calib.sigma_ideal, calib.rho_for(subset),
            k))});
        row.push_back(Cell{stats::stddev(means)});
      }
      block.add_row(row);
    }
    blocks.push_back(std::move(block));
    plateaus.add_row({Cell{calib.paper_task}, Cell{calib.metric},
                      Cell{calib.sigma_ideal}, Cell{1.0 / calib.rho_init},
                      Cell{1.0 / calib.rho_data}, Cell{1.0 / calib.rho_all}});
  }
  blocks.push_back(std::move(plateaus));
  return blocks;
}

// ---------------------------------------------------------------- figH5

namespace {

struct H5Variant {
  std::string_view label;
  compare::EstimatorKind kind;
  bool ideal_profile;
  core::RandomizeSubset subset;  // ignored for ideal profiles
  bool unit_k;                   // true → k = 1 (the IdealEst(1) row)
};

constexpr H5Variant kH5Variants[] = {
    {"ideal", compare::EstimatorKind::kIdeal, true,
     core::RandomizeSubset::kAll, false},
    {"fix_all", compare::EstimatorKind::kBiased, false,
     core::RandomizeSubset::kAll, false},
    {"fix_data", compare::EstimatorKind::kBiased, false,
     core::RandomizeSubset::kData, false},
    {"fix_init", compare::EstimatorKind::kBiased, false,
     core::RandomizeSubset::kInit, false},
    {"ideal1", compare::EstimatorKind::kIdeal, true,
     core::RandomizeSubset::kAll, true},
};

std::size_t h5_k(const StudySpec& spec, const H5Variant& v) {
  return v.unit_k ? 1 : spec.figure.k;
}

const H5Variant& h5_variant(const std::string& label) {
  for (const auto& v : kH5Variants) {
    if (v.label == label) return v;
  }
  throw std::invalid_argument("figH5: unknown estimator label '" + label +
                              "'");
}

}  // namespace

ResultTable run_figH5(const StudySpec& spec) {
  // Sufficient statistics per realization: the mean of its k draws and the
  // within-realization sum of squared deviations (m2). Bias, Var(µ̃(k)),
  // the pooled single-measure variance, ρ, and MSE all derive from these.
  RowPlan rows{spec, {"task", "estimator", "realization", "mean", "m2"}};
  struct Moments {
    double mean = 0.0;
    double m2 = 0.0;
  };
  for (const auto& task : resolve_tasks(spec)) {
    const auto& calib = casestudies::calibration_for(task);
    for (const auto& v : kH5Variants) {
      rows.replicates<Moments>(
          spec.repetitions, 1,
          rngx::derive_seed(spec.seed, task + "/" + std::string{v.label}),
          "figH5_realization",
          [profile = v.ideal_profile ? calib.ideal_profile()
                                     : calib.profile(v.subset),
           kind = v.kind, k = h5_k(spec, v)](std::size_t, rngx::Rng& rng) {
            const auto x = compare::simulate_measures(profile, kind, 0.0, k,
                                                      rng);
            Moments m;
            m.mean = stats::mean(x);
            for (const double xi : x) {
              m.m2 += (xi - m.mean) * (xi - m.mean);
            }
            return m;
          },
          [task, label = std::string{v.label}](std::size_t r,
                                               const Moments& m,
                                               std::size_t) {
            return Row{Cell{task}, Cell{label}, Cell{r}, Cell{m.mean},
                       Cell{m.m2}};
          });
    }
  }
  return rows.run();
}

std::vector<ResultTable> summarize_figH5(const ResultTable& t) {
  const StudySpec& spec = t.spec.value();
  std::vector<ResultTable> blocks;
  for (const RowGroup& task : group_rows(t, {"task"})) {
    const auto& calib =
        casestudies::calibration_for(task.cell("task").as_string());
    ResultTable block = summary_block(
        calib.paper_task + " (metric=" + calib.metric + ")",
        {"estimator", "k", "bias", "Var(mu_k)", "rho", "MSE"});
    for (const RowGroup& est : task.by({"estimator"})) {
      const auto& v = h5_variant(est.cell("estimator").as_string());
      const std::size_t k = h5_k(spec, v);
      const auto means = est.values("mean");
      double m2_sum = 0.0;
      for (const double m2 : est.values("m2")) m2_sum += m2;
      const double n = static_cast<double>(means.size());
      const double grand = stats::mean(means);
      const double var_means = stats::variance(means);
      // Pooled variance of all n·k single draws via the law of total
      // variance: Σᵢ m2ᵢ + k·Σᵢ(meanᵢ − grand)², over n·k − 1.
      double between = 0.0;
      for (const double m : means) between += (m - grand) * (m - grand);
      const double var_singles =
          n * static_cast<double>(k) > 1.0
              ? (m2_sum + static_cast<double>(k) * between) /
                    (n * static_cast<double>(k) - 1.0)
              : 0.0;
      double mse = 0.0;
      for (const double m : means) mse += (m - calib.mu) * (m - calib.mu);
      mse /= n;
      block.add_row(
          {Cell{v.ideal_profile ? std::string{"IdealEst"}
                                : "FixHOptEst(" +
                                      std::string{core::to_string(v.subset)} +
                                      ")"},
           Cell{k}, Cell{std::abs(grand - calib.mu)}, Cell{var_means},
           Cell{stats::implied_correlation(var_means, var_singles, k)},
           Cell{mse}});
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace varbench::study::figures
