// The decision-criteria studies: the detection kind (one task, one
// estimator) and Fig. 6 (detection-rate curves over every calibration and
// both estimators), which share their criteria, rounds and rate table;
// Fig. I.6 (robustness vs sample size and γ); and the App. C.2
// paired-vs-unpaired ablation. Raw rows are one simulation round each (0/1
// detection flags per criterion) on per-round streams; the rate curves are
// averages derived at summary time.
#include <iterator>
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

/// The four decision criteria of Fig. 6, in column order.
constexpr const char* kDetectionCriteria[] = {"oracle", "single_point",
                                              "average", "prob_outperforming"};

std::vector<std::unique_ptr<compare::ComparisonCriterion>> detection_criteria(
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

/// The `lead` columns, p, sim, then one 0/1 column per criterion.
std::vector<std::string> detection_columns(
    const std::vector<std::string>& lead) {
  std::vector<std::string> columns = lead;
  columns.insert(columns.end(), {"p", "sim"});
  columns.insert(columns.end(), std::begin(kDetectionCriteria),
                 std::end(kDetectionCriteria));
  return columns;
}

/// Declares one group of p_grid × repetitions detection rounds for one
/// task under one estimator, simulates this shard's slice of them on a
/// stream seeded by `seed`, and emits one row per round: the `lead` cells,
/// p, sim, and one 0/1 hit per criterion.
void add_detection_rows(RowPlan& rows, const StudySpec& spec,
                        const casestudies::TaskCalibration& calib, bool ideal,
                        std::uint64_t seed, const Row& lead) {
  compare::DetectionRateConfig cfg;
  cfg.k = spec.figure.k;
  cfg.simulations = spec.repetitions;
  cfg.p_grid = spec.figure.p_grid.empty() ? compare::default_p_grid()
                                             : spec.figure.p_grid;
  cfg.exec = exec_of(spec);
  const std::size_t rounds = cfg.p_grid.size() * cfg.simulations;
  const auto slice = rows.slice(rounds);
  rngx::Rng rng{seed};
  auto hits = compare::detection_rounds(
      ideal ? calib.ideal_profile()
            : calib.profile(core::RandomizeSubset::kAll),
      ideal ? compare::EstimatorKind::kIdeal : compare::EstimatorKind::kBiased,
      detection_criteria(calib, spec), cfg, slice, rng);
  rows.group(rounds, 1,
             [lead, p_grid = cfg.p_grid, simulations = cfg.simulations,
              hits = std::move(hits),
              begin = slice.begin](std::size_t round, std::size_t) {
               Row row = lead;
               row.push_back(Cell{p_grid[round / simulations]});
               row.push_back(Cell{round % simulations});
               for (const std::uint8_t h : hits.at(round - begin)) {
                 row.push_back(Cell{static_cast<std::size_t>(h)});
               }
               return row;
             });
}

const char* region_label(double p, double gamma) {
  const auto region = compare::classify_region(p, gamma);
  return region == compare::TruthRegion::kH0   ? "H0"
         : region == compare::TruthRegion::kH1 ? "H1"
                                               : "H0H1";
}

/// 100 × the mean of 0/1 hits: a detection rate in percent.
double percent(const std::vector<double>& hits) {
  double sum = 0.0;
  for (const double h : hits) sum += h;
  return 100.0 * sum / static_cast<double>(hits.size());
}

/// The rate table of both detection summaries: per grid point P(A>B) (its
/// rounds pooled by equal p), its truth region and each criterion's
/// detection rate.
ResultTable detection_rates(std::string name, const RowGroup& rounds,
                            double gamma) {
  std::vector<std::string> columns{"P(A>B)", "region"};
  for (const char* criterion : kDetectionCriteria) {
    columns.push_back(std::string{criterion} + " %");
  }
  ResultTable block = summary_block(std::move(name), std::move(columns));
  for (const RowGroup& point : rounds.by({"p"})) {
    const double p = point.cell("p").as_double();
    Row row{Cell{p}, Cell{region_label(p, gamma)}};
    for (const char* criterion : kDetectionCriteria) {
      row.push_back(Cell{percent(point.values(criterion))});
    }
    block.add_row(row);
  }
  return block;
}

}  // namespace

// ------------------------------------------------------------ detection

ResultTable run_detection(const StudySpec& spec) {
  const bool ideal = spec.figure.estimator == "ideal";
  if (!ideal && spec.figure.estimator != "biased") {
    throw std::invalid_argument("study 'detection': params.estimator must be "
                                "'ideal' or 'biased', got '" +
                                spec.figure.estimator + "'");
  }
  RowPlan rows{spec, detection_columns({})};
  add_detection_rows(rows, spec, casestudies::calibration_for(spec.case_study),
                     ideal, spec.seed, {});
  return rows.run();
}

std::vector<ResultTable> summarize_detection(const ResultTable& t) {
  return {detection_rates("detection rates", all_rows(t),
                          t.spec.value().figure.gamma)};
}

// ---------------------------------------------------------------- fig06

ResultTable run_fig06(const StudySpec& spec) {
  RowPlan rows{spec, detection_columns({"estimator", "task"})};
  for (const std::string_view est : {"ideal", "fix_all"}) {
    for (const auto& task : resolve_tasks(spec)) {
      add_detection_rows(
          rows, spec, casestudies::calibration_for(task), est == "ideal",
          rngx::derive_seed(spec.seed, std::string{est} + ":" + task),
          {Cell{std::string{est}}, Cell{task}});
    }
  }
  return rows.run();
}

std::vector<ResultTable> summarize_fig06(const ResultTable& t) {
  std::vector<ResultTable> blocks;
  for (const RowGroup& est : group_rows(t, {"estimator"})) {
    // Each estimator's rates are averaged over every task.
    const std::string& label = est.cell("estimator").as_string();
    blocks.push_back(detection_rates(
        label + " estimator (" +
            (label == "ideal" ? "solid lines"
                              : "FixHOptEst(k, All), dashed lines") +
            ")",
        est, t.spec.value().figure.gamma));
  }
  return blocks;
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
  RowPlan rows{spec, {"axis", "p", "x", "sim", "average",
                      "prob_outperforming", "t_test"}};
  const auto& calib = casestudies::calibration_for(spec.case_study);
  const auto profile = calib.ideal_profile();
  const double sigma = calib.sigma_ideal;
  const double delta_pub = compare::published_improvement_delta(sigma);
  const std::size_t resamples = spec.figure.resamples;

  const auto add_group = [&](const std::string& axis, double p, double x,
                             std::size_t k, double gamma, double delta,
                             std::size_t pi, std::size_t xi) {
    rows.replicates<I6Hits>(
        spec.repetitions, 1,
        rngx::derive_seed(spec.seed, "figI6/" + axis + "/" +
                                         std::to_string(pi) + "/" +
                                         std::to_string(xi)),
        "figI6_sim",
        [profile, sigma, k, gamma, delta, resamples,
         offset = compare::mean_offset_for_probability(p, sigma)](
            std::size_t, rngx::Rng& rng) {
          // The criteria are not copyable; building them draws nothing.
          const compare::AverageComparison avg{delta};
          const compare::ProbOutperformCriterion pab{gamma, resamples};
          const compare::OracleComparison ttest{sigma, 0.05};
          const auto a = compare::simulate_measures(
              profile, compare::EstimatorKind::kIdeal, offset, k, rng);
          const auto b = compare::simulate_measures(
              profile, compare::EstimatorKind::kIdeal, 0.0, k, rng);
          I6Hits h;
          h.average = avg.detects(a, b, rng) ? 1 : 0;
          h.prob = pab.detects(a, b, rng) ? 1 : 0;
          h.t_test = ttest.detects(a, b, rng) ? 1 : 0;
          return h;
        },
        [axis, p, x](std::size_t sim, const I6Hits& h, std::size_t) {
          return Row{Cell{axis},
                     Cell{p},
                     Cell{x},
                     Cell{sim},
                     Cell{static_cast<std::size_t>(h.average)},
                     Cell{static_cast<std::size_t>(h.prob)},
                     Cell{static_cast<std::size_t>(h.t_test)}};
        });
  };

  for (std::size_t pi = 0; pi < spec.figure.p_grid.size(); ++pi) {
    for (std::size_t ki = 0; ki < spec.figure.k_grid.size(); ++ki) {
      const std::size_t k = spec.figure.k_grid[ki];
      add_group("k", spec.figure.p_grid[pi], static_cast<double>(k), k,
                spec.figure.gamma, delta_pub, pi, ki);
    }
  }
  for (std::size_t pi = 0; pi < spec.figure.p_grid.size(); ++pi) {
    for (std::size_t gi = 0; gi < spec.figure.gamma_grid.size(); ++gi) {
      const double gamma = spec.figure.gamma_grid[gi];
      // Appendix I: for the average criterion γ converts into the
      // equivalent difference δ = √2·σ·Φ⁻¹(γ).
      add_group("gamma", spec.figure.p_grid[pi], gamma, spec.figure.k, gamma,
                compare::mean_offset_for_probability(gamma, sigma), pi, gi);
    }
  }
  return rows.run();
}

std::vector<ResultTable> summarize_figI6(const ResultTable& t) {
  std::vector<ResultTable> blocks;
  for (const RowGroup& axis : group_rows(t, {"axis"})) {
    const bool by_k = axis.cell("axis").as_string() == "k";
    ResultTable block = summary_block(
        by_k ? "detection rate vs sample size (at the spec gamma)"
             : "detection rate vs gamma (at the spec k)",
        {"P(A>B)", by_k ? "k" : "gamma", "average %", "prob_outperforming %",
         "t-test %"});
    for (const RowGroup& point : axis.by({"p", "x"})) {
      block.add_row({point.cell("p").to_json(), point.cell("x").to_json(),
                     Cell{percent(point.values("average"))},
                     Cell{percent(point.values("prob_outperforming"))},
                     Cell{percent(point.values("t_test"))}});
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
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
  RowPlan rows{spec, {"edge", "sim", "paired", "unpaired"}};
  struct Hits {
    std::uint8_t paired = 0;
    std::uint8_t unpaired = 0;
  };
  for (std::size_t ei = 0; ei < spec.figure.edges.size(); ++ei) {
    const double edge = spec.figure.edges[ei];
    rows.replicates<Hits>(
        spec.repetitions, 1,
        rngx::derive_seed(spec.seed, "pairing/" + std::to_string(ei)),
        "pairing_sim",
        [edge, k = spec.figure.k, gamma = spec.figure.gamma,
         resamples = spec.figure.resamples](std::size_t, rngx::Rng& rng) {
          std::vector<double> a;
          std::vector<double> b;
          Hits h;
          simulate_pair(edge, k, rng, a, b, true);
          const auto r1 = stats::test_probability_of_outperforming(
              exec::ExecContext{}, a, b, rng, gamma, resamples);
          h.paired = r1.conclusion ==
                             stats::ComparisonConclusion::
                                 kSignificantAndMeaningful
                         ? 1
                         : 0;
          simulate_pair(edge, k, rng, a, b, false);
          const auto r2 = stats::test_probability_of_outperforming(
              exec::ExecContext{}, a, b, rng, gamma, resamples);
          h.unpaired = r2.conclusion ==
                               stats::ComparisonConclusion::
                                   kSignificantAndMeaningful
                           ? 1
                           : 0;
          return h;
        },
        [edge](std::size_t sim, const Hits& h, std::size_t) {
          return Row{Cell{edge}, Cell{sim},
                     Cell{static_cast<std::size_t>(h.paired)},
                     Cell{static_cast<std::size_t>(h.unpaired)}};
        });
  }
  return rows.run();
}

std::vector<ResultTable> summarize_ablation_pairing(const ResultTable& t) {
  // For true edges below the shared-noise scale kSharedStd, pairing
  // removes the shared split effect from Var(A-B).
  ResultTable block = summary_block(
      "paired vs unpaired detection",
      {"true edge", "paired detection %", "unpaired detection %"});
  for (const RowGroup& edge : group_rows(t, {"edge"})) {
    block.add_row({edge.cell("edge").to_json(),
                   Cell{percent(edge.values("paired"))},
                   Cell{percent(edge.values("unpaired"))}});
  }
  return {std::move(block)};
}

}  // namespace varbench::study::figures
