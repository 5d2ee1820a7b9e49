// The decision-criteria figures: Fig. 6 (detection-rate curves over every
// calibration and both estimators), Fig. I.6 (robustness vs sample size
// and γ), and the App. C.2 paired-vs-unpaired ablation. Raw rows are one
// simulation round each (0/1 detection flags per criterion) on per-round
// streams; the rate curves are averages derived at summary time.
#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/casestudies/calibration.h"
#include "src/compare/criteria.h"
#include "src/compare/error_rates.h"
#include "src/compare/simulation.h"
#include "src/stats/prob_outperform.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

constexpr std::string_view kFig06Criteria[] = {
    "oracle", "single_point", "average", "prob_outperforming"};

std::vector<std::unique_ptr<compare::ComparisonCriterion>> fig06_criteria(
    const casestudies::TaskCalibration& calib, const StudySpec& spec) {
  const double delta = compare::published_improvement_delta(calib.sigma_ideal);
  std::vector<std::unique_ptr<compare::ComparisonCriterion>> criteria;
  criteria.push_back(
      std::make_unique<compare::OracleComparison>(calib.sigma_ideal));
  criteria.push_back(std::make_unique<compare::SinglePointComparison>(delta));
  criteria.push_back(std::make_unique<compare::AverageComparison>(delta));
  criteria.push_back(std::make_unique<compare::ProbOutperformCriterion>(
      spec.figure.gamma, spec.figure.resamples));
  return criteria;
}

const char* region_label(double p, double gamma) {
  const auto region = compare::classify_region(p, gamma);
  return region == compare::TruthRegion::kH0   ? "H0"
         : region == compare::TruthRegion::kH1 ? "H1"
                                               : "H0H1";
}

}  // namespace

// ---------------------------------------------------------------- fig06

ResultTable run_fig06(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "estimator", "task", "p", "sim"};
  for (const auto& name : kFig06Criteria) {
    t.columns.push_back(std::string{name});
  }
  const std::vector<double> p_grid = spec.figure.p_grid.empty()
                                         ? compare::default_p_grid()
                                         : spec.figure.p_grid;
  GroupSeq gs;
  for (const std::string_view est : {"ideal", "fix_all"}) {
    const bool ideal = est == "ideal";
    for (const auto& task : resolve_tasks(spec)) {
      const auto& calib = casestudies::calibration_for(task);
      const auto profile = ideal
                               ? calib.ideal_profile()
                               : calib.profile(core::RandomizeSubset::kAll);
      const auto criteria = fig06_criteria(calib, spec);
      compare::DetectionRateConfig cfg;
      cfg.k = spec.figure.k;
      cfg.simulations = spec.repetitions;
      cfg.gamma = spec.figure.gamma;
      cfg.p_grid = p_grid;
      cfg.exec = exec_of(spec);
      const std::size_t rounds = p_grid.size() * cfg.simulations;
      const auto slice = slice_of(spec, rounds);
      rngx::Rng rng{
          rngx::derive_seed(spec.seed, std::string{est} + ":" + task)};
      const auto hits = compare::detection_rounds(
          profile,
          ideal ? compare::EstimatorKind::kIdeal
                : compare::EstimatorKind::kBiased,
          criteria, cfg, slice, rng);
      const std::size_t start = gs.enter(rounds);
      for (std::size_t j = 0; j < hits.size(); ++j) {
        const std::size_t round = slice.begin + j;
        const std::size_t gi = round / cfg.simulations;
        const std::size_t si = round % cfg.simulations;
        Row row{Cell{gs.seq(start, round)}, Cell{std::string{est}},
                Cell{task}, Cell{p_grid[gi]}, Cell{si}};
        for (const std::uint8_t h : hits[j]) {
          row.push_back(Cell{static_cast<std::size_t>(h)});
        }
        t.add_row(std::move(row));
      }
    }
  }
  return t;
}

void summarize_fig06(const ResultTable& t, std::FILE* out) {
  const double gamma = t.spec.value().figure.gamma;
  const std::size_t est_col = t.column_index("estimator");
  const std::size_t p_col = t.column_index("p");
  std::vector<std::size_t> criterion_cols;
  for (const auto& name : kFig06Criteria) {
    criterion_cols.push_back(t.column_index(std::string{name}));
  }
  for (const std::string_view est : {"ideal", "fix_all"}) {
    std::fprintf(out, "\n%s estimator (%s)\n", std::string{est}.c_str(),
                 est == "ideal" ? "solid lines"
                                : "FixHOptEst(k, All), dashed lines");
    std::fprintf(out, "  %-6s %-8s %8s %13s %9s %11s\n", "P(A>B)", "region",
                 "oracle", "single_point", "average", "prob_outp.");
    // Grid points in first-appearance order, averaged over every task.
    std::vector<double> p_grid;
    std::vector<std::array<double, 4>> sums;
    std::vector<double> counts;
    for (const auto& row : t.rows) {
      if (row[est_col].as_string() != est) continue;
      const double p = row[p_col].as_double();
      std::size_t gi = p_grid.size();
      for (std::size_t i = 0; i < p_grid.size(); ++i) {
        if (p_grid[i] == p) gi = i;
      }
      if (gi == p_grid.size()) {
        p_grid.push_back(p);
        sums.push_back({});
        counts.push_back(0.0);
      }
      counts[gi] += 1.0;
      for (std::size_t ci = 0; ci < criterion_cols.size(); ++ci) {
        sums[gi][ci] += row[criterion_cols[ci]].as_double();
      }
    }
    for (std::size_t gi = 0; gi < p_grid.size(); ++gi) {
      std::fprintf(out, "  %-6.2f %-8s %7.0f%% %12.0f%% %8.0f%% %10.0f%%\n",
                   p_grid[gi], region_label(p_grid[gi], gamma),
                   100.0 * sums[gi][0] / counts[gi],
                   100.0 * sums[gi][1] / counts[gi],
                   100.0 * sums[gi][2] / counts[gi],
                   100.0 * sums[gi][3] / counts[gi]);
    }
  }
  std::fprintf(out,
               "\nShape check vs paper: at P=0.5 single_point has the "
               "highest FP rate;\nin the H1 region average has the highest FN "
               "rate and prob_outperforming\ntracks the oracle most closely; "
               "the biased estimator degrades\nprob_outperforming only "
               "mildly.\n");
}

// ---------------------------------------------------------------- figI6

namespace {

struct I6Hits {
  std::uint8_t average = 0;
  std::uint8_t prob = 0;
  std::uint8_t t_test = 0;
};

}  // namespace

ResultTable run_figI6(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "axis",    "p",
               "x",   "sim",     "average",
               "prob_outperforming", "t_test"};
  const auto& calib = casestudies::calibration_for(spec.case_study);
  const auto profile = calib.ideal_profile();
  const double sigma = calib.sigma_ideal;
  const double delta_pub = compare::published_improvement_delta(sigma);
  GroupSeq gs;

  const auto run_group = [&](const std::string& axis, double p, double x,
                             std::size_t k, double gamma, double delta,
                             std::size_t pi, std::size_t xi) {
    const compare::AverageComparison avg{delta};
    const compare::ProbOutperformCriterion pab{gamma, spec.figure.resamples};
    const compare::OracleComparison ttest{sigma, 0.05};
    const double offset = compare::mean_offset_for_probability(p, sigma);
    const auto slice = slice_of(spec, spec.repetitions);
    const auto hits = exec::parallel_replicate_range<I6Hits>(
        exec_of(spec), slice,
        rngx::derive_seed(spec.seed, "figI6/" + axis + "/" +
                                         std::to_string(pi) + "/" +
                                         std::to_string(xi)),
        "figI6_sim", [&](std::size_t, rngx::Rng& rng) {
          const auto a = compare::simulate_measures(
              profile, compare::EstimatorKind::kIdeal, offset, k, rng);
          const auto b = compare::simulate_measures(
              profile, compare::EstimatorKind::kIdeal, 0.0, k, rng);
          I6Hits h;
          h.average = avg.detects(a, b, rng) ? 1 : 0;
          h.prob = pab.detects(a, b, rng) ? 1 : 0;
          h.t_test = ttest.detects(a, b, rng) ? 1 : 0;
          return h;
        });
    const std::size_t start = gs.enter(spec.repetitions);
    for (std::size_t j = 0; j < hits.size(); ++j) {
      const std::size_t sim = slice.begin + j;
      t.add_row({Cell{gs.seq(start, sim)}, Cell{axis}, Cell{p}, Cell{x},
                 Cell{sim}, Cell{static_cast<std::size_t>(hits[j].average)},
                 Cell{static_cast<std::size_t>(hits[j].prob)},
                 Cell{static_cast<std::size_t>(hits[j].t_test)}});
    }
  };

  for (std::size_t pi = 0; pi < spec.figure.p_grid.size(); ++pi) {
    for (std::size_t ki = 0; ki < spec.figure.k_grid.size(); ++ki) {
      const std::size_t k = spec.figure.k_grid[ki];
      run_group("k", spec.figure.p_grid[pi], static_cast<double>(k), k,
                spec.figure.gamma, delta_pub, pi, ki);
    }
  }
  for (std::size_t pi = 0; pi < spec.figure.p_grid.size(); ++pi) {
    for (std::size_t gi = 0; gi < spec.figure.gamma_grid.size(); ++gi) {
      const double gamma = spec.figure.gamma_grid[gi];
      // Appendix I: for the average criterion γ converts into the
      // equivalent difference δ = √2·σ·Φ⁻¹(γ).
      run_group("gamma", spec.figure.p_grid[pi], gamma, spec.figure.k, gamma,
                compare::mean_offset_for_probability(gamma, sigma), pi, gi);
    }
  }
  return t;
}

void summarize_figI6(const ResultTable& t, std::FILE* out) {
  const std::size_t axis_col = t.column_index("axis");
  const std::size_t p_col = t.column_index("p");
  const std::size_t x_col = t.column_index("x");
  const std::size_t avg_col = t.column_index("average");
  const std::size_t pab_col = t.column_index("prob_outperforming");
  const std::size_t tt_col = t.column_index("t_test");
  for (const std::string_view axis : {"k", "gamma"}) {
    std::fprintf(out, "\ndetection rate vs %s\n",
                 axis == "k" ? "sample size (at the spec gamma)"
                             : "gamma (at the spec k)");
    std::fprintf(out, "  %-8s %-10s %9s %9s %9s\n", "P(A>B)",
                 axis == "k" ? "k" : "gamma", "average", "prob_outp",
                 "t-test");
    double p = -1.0;
    double x = -1.0;
    double n = 0.0;
    std::array<double, 3> sums{};
    const auto flush = [&] {
      if (n == 0.0) return;
      if (axis == "k") {
        std::fprintf(out, "  %-8.2f %-10.0f %8.0f%% %8.0f%% %8.0f%%\n", p, x,
                     100.0 * sums[0] / n, 100.0 * sums[1] / n,
                     100.0 * sums[2] / n);
      } else {
        std::fprintf(out, "  %-8.2f %-10.2f %8.0f%% %8.0f%% %8.0f%%\n", p, x,
                     100.0 * sums[0] / n, 100.0 * sums[1] / n,
                     100.0 * sums[2] / n);
      }
      n = 0.0;
      sums = {};
    };
    for (const auto& row : t.rows) {
      if (row[axis_col].as_string() != axis) continue;
      if (row[p_col].as_double() != p || row[x_col].as_double() != x) {
        flush();
        p = row[p_col].as_double();
        x = row[x_col].as_double();
      }
      n += 1.0;
      sums[0] += row[avg_col].as_double();
      sums[1] += row[pab_col].as_double();
      sums[2] += row[tt_col].as_double();
    }
    flush();
  }
  std::fprintf(out,
               "\nShape check vs paper: at P=0.5 all methods stay near/below "
               "~5-10%%\nregardless of k; for P>=0.7 the P(A>B) test's rate "
               "grows with k while\nthe fixed-delta average barely moves; "
               "raising gamma lowers detection\nrates for both methods.\n");
}

// ----------------------------------------------------- ablation_pairing

namespace {

/// Simulated paired measurements: both algorithms share a per-run split
/// effect (the dominant ξO component); A has a true mean edge.
constexpr double kSharedStd = 0.02;  // split-driven component
constexpr double kIndepStd = 0.005;  // seed-driven component

void simulate_pair(double edge, std::size_t k, rngx::Rng& rng,
                   std::vector<double>& a, std::vector<double>& b,
                   bool paired) {
  a.resize(k);
  b.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double shared_a = rng.normal(0.0, kSharedStd);
    const double shared_b = paired ? shared_a : rng.normal(0.0, kSharedStd);
    a[i] = 0.8 + edge + shared_a + rng.normal(0.0, kIndepStd);
    b[i] = 0.8 + shared_b + rng.normal(0.0, kIndepStd);
  }
}

}  // namespace

ResultTable run_ablation_pairing(const StudySpec& spec) {
  ResultTable t;
  t.columns = {"seq", "edge", "sim", "paired", "unpaired"};
  GroupSeq gs;
  for (std::size_t ei = 0; ei < spec.figure.edges.size(); ++ei) {
    const double edge = spec.figure.edges[ei];
    struct Hits {
      std::uint8_t paired = 0;
      std::uint8_t unpaired = 0;
    };
    const auto slice = slice_of(spec, spec.repetitions);
    const auto hits = exec::parallel_replicate_range<Hits>(
        exec_of(spec), slice,
        rngx::derive_seed(spec.seed, "pairing/" + std::to_string(ei)),
        "pairing_sim", [&](std::size_t, rngx::Rng& rng) {
          std::vector<double> a;
          std::vector<double> b;
          Hits h;
          simulate_pair(edge, spec.figure.k, rng, a, b, true);
          const auto r1 = stats::test_probability_of_outperforming(
              a, b, rng, spec.figure.gamma, spec.figure.resamples);
          h.paired = r1.conclusion ==
                             stats::ComparisonConclusion::
                                 kSignificantAndMeaningful
                         ? 1
                         : 0;
          simulate_pair(edge, spec.figure.k, rng, a, b, false);
          const auto r2 = stats::test_probability_of_outperforming(
              a, b, rng, spec.figure.gamma, spec.figure.resamples);
          h.unpaired = r2.conclusion ==
                               stats::ComparisonConclusion::
                                   kSignificantAndMeaningful
                           ? 1
                           : 0;
          return h;
        });
    const std::size_t start = gs.enter(spec.repetitions);
    for (std::size_t j = 0; j < hits.size(); ++j) {
      const std::size_t sim = slice.begin + j;
      t.add_row({Cell{gs.seq(start, sim)}, Cell{edge}, Cell{sim},
                 Cell{static_cast<std::size_t>(hits[j].paired)},
                 Cell{static_cast<std::size_t>(hits[j].unpaired)}});
    }
  }
  return t;
}

void summarize_ablation_pairing(const ResultTable& t, std::FILE* out) {
  const std::size_t edge_col = t.column_index("edge");
  const std::size_t paired_col = t.column_index("paired");
  const std::size_t unpaired_col = t.column_index("unpaired");
  std::fprintf(out, "\n  %-12s %18s %18s\n", "true edge", "paired detection",
               "unpaired detection");
  double edge = -1.0;
  double n = 0.0;
  double paired = 0.0;
  double unpaired = 0.0;
  const auto flush = [&] {
    if (n == 0.0) return;
    std::fprintf(out, "  %-12.3f %17.0f%% %17.0f%%\n", edge,
                 100.0 * paired / n, 100.0 * unpaired / n);
    n = paired = unpaired = 0.0;
  };
  for (const auto& row : t.rows) {
    if (row[edge_col].as_double() != edge) {
      flush();
      edge = row[edge_col].as_double();
    }
    n += 1.0;
    paired += row[paired_col].as_double();
    unpaired += row[unpaired_col].as_double();
  }
  flush();
  std::fprintf(out,
               "\nReading: at edge=0 both stay near the nominal "
               "false-positive rate;\nfor small true edges (below the "
               "shared-noise scale %.3f) the paired\ndesign detects far more "
               "often — pairing removes the shared split\neffect from "
               "Var(A-B).\n",
               kSharedStd);
}

}  // namespace varbench::study::figures
