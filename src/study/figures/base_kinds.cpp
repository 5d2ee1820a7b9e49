// The original five study kinds: the variance-source decomposition, the
// paired comparison, one HOpt run, the estimator sweep and the detection
// simulation, each on one case study (docs/study_api.md).
#include <iterator>
#include <memory>
#include <stdexcept>

#include "src/casestudies/calibration.h"
#include "src/compare/criteria.h"
#include "src/compare/error_rates.h"
#include "src/core/estimators.h"
#include "src/core/variance_study.h"
#include "src/rngx/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

namespace {

void require_unsharded(const StudySpec& spec, std::string_view why) {
  if (!spec.shard.is_unsharded()) {
    throw std::invalid_argument(
        "study '" + std::string{to_string(spec.kind)} + "' cannot be " +
        "sharded: " + std::string{why} + " (drop --shard / the shard block)");
  }
}

/// The paired configurations of the comparison study: A = pipeline
/// defaults, B = defaults with the learning rate scaled by lr_mult (or, for
/// spaces without a learning rate, a 100× weight-decay bump).
std::pair<hpo::ParamPoint, hpo::ParamPoint> compare_configs(
    const core::LearningPipeline& pipeline, double lr_mult) {
  auto params_a = pipeline.default_params();
  auto params_b = params_a;
  if (params_b.count("learning_rate") != 0) {
    params_b["learning_rate"] *= lr_mult;
  } else if (params_b.count("weight_decay") != 0) {
    params_b["weight_decay"] = std::min(1.0, params_b["weight_decay"] * 100.0);
  }
  return {std::move(params_a), std::move(params_b)};
}

struct EstimatorName {
  std::string_view name;
  bool ideal;
  core::RandomizeSubset subset;
};

constexpr EstimatorName kEstimatorNames[] = {
    {"ideal", true, core::RandomizeSubset::kAll},
    {"fix_init", false, core::RandomizeSubset::kInit},
    {"fix_data", false, core::RandomizeSubset::kData},
    {"fix_all", false, core::RandomizeSubset::kAll},
};

const EstimatorName& estimator_by_name(const std::string& name) {
  for (const auto& e : kEstimatorNames) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument(
      "study 'estimator': unknown estimator '" + name +
      "' (known: 'ideal', 'fix_init', 'fix_data', 'fix_all')");
}

constexpr std::string_view kDetectionCriteria[] = {
    "oracle", "single_point", "average", "prob_outperforming"};

}  // namespace

// ------------------------------------------------------------- variance

ResultTable run_variance(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  core::VarianceStudyConfig cfg;
  cfg.repetitions = spec.repetitions;
  cfg.hpo_algorithms = spec.figure.hpo_algorithms;
  cfg.hpo_repetitions = spec.resolved_hpo_repetitions();
  cfg.hpo_budget = spec.figure.hpo_budget;
  cfg.include_numerical_noise = spec.figure.include_numerical_noise;
  cfg.exec = exec_of(spec);
  cfg.shard_index = spec.shard.index;
  cfg.shard_count = spec.shard.count;
  rngx::Rng master{spec.seed};
  const auto result = core::run_variance_study(*cs.pipeline, *cs.pool,
                                               *cs.splitter, cfg, master);

  ResultTable t;
  t.columns = {"seq", "source", "rep", "measure"};
  std::size_t offset = 0;  // seq offset of the current group in the FULL run
  for (const auto& row : result.rows) {
    const std::size_t group_size = row.source == rngx::VariationSource::kHpo
                                       ? cfg.hpo_repetitions
                                       : cfg.repetitions;
    const auto slice = slice_of(spec, group_size);
    if (row.measures.size() != slice.size()) {
      throw std::logic_error("variance runner: engine returned " +
                             std::to_string(row.measures.size()) +
                             " measures for a slice of " +
                             std::to_string(slice.size()));
    }
    for (std::size_t j = 0; j < row.measures.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      t.add_row({Cell{offset + rep}, Cell{row.label}, Cell{rep},
                 Cell{row.measures[j]}});
    }
    offset += group_size;
  }
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

// -------------------------------------------------------------- compare

ResultTable run_compare(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto [params_a, params_b] =
      compare_configs(*cs.pipeline, spec.figure.lr_mult);

  rngx::Rng master{spec.seed};
  struct PairedMeasure {
    double a = 0.0;
    double b = 0.0;
  };
  // Paired runs are independent given per-run streams; fan them out. Both
  // configurations see the same ξ within a run (App. C.2 pairing).
  const auto measures = exec::parallel_replicate_range<PairedMeasure>(
      exec_of(spec), slice_of(spec, spec.repetitions), master, "compare",
      [&](std::size_t, rngx::Rng& run_rng) {
        const auto seeds = rngx::VariationSeeds::random(run_rng);
        return PairedMeasure{
            core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                      params_a, seeds),
            core::measure_with_params(*cs.pipeline, *cs.pool, *cs.splitter,
                                      params_b, seeds)};
      });

  ResultTable t;
  t.columns = {"seq", "rep", "perf_a", "perf_b"};
  const auto slice = slice_of(spec, spec.repetitions);
  for (std::size_t j = 0; j < measures.size(); ++j) {
    const std::size_t rep = slice.begin + j;
    t.add_row({Cell{rep}, Cell{rep}, Cell{measures[j].a}, Cell{measures[j].b}});
  }
  return t;
}

void summarize_compare(const ResultTable& t, std::FILE* out) {
  const StudySpec& spec = t.spec.value();
  const auto pa = t.column_values("perf_a");
  const auto pb = t.column_values("perf_b");
  // Reproduce the run's RNG bookkeeping from the spec alone: the runner
  // drew exactly one u64 for the replicate stream before the legacy code
  // split off the test stream — so the summary of a merged artifact is the
  // summary the unsharded process would have printed.
  rngx::Rng master{spec.seed};
  (void)master.next_u64();
  auto rng = master.split("test");
  const auto r = stats::test_probability_of_outperforming(
      pa, pb, rng, spec.figure.gamma, spec.figure.num_resamples);
  std::fprintf(out, "mean A = %.4f, mean B = %.4f\n", stats::mean(pa),
               stats::mean(pb));
  std::fprintf(out, "P(A>B) = %.3f, CI [%.3f, %.3f], gamma = %.2f\n",
               r.p_a_greater_b, r.ci.lower, r.ci.upper, spec.figure.gamma);
  std::fprintf(out, "conclusion: %s\n",
               std::string(stats::to_string(r.conclusion)).c_str());
}

// ------------------------------------------------------------------ hpo

ResultTable run_hpo(const StudySpec& spec) {
  require_unsharded(spec,
                    "one HOpt run is inherently sequential; use the "
                    "variance study's hpo rows for HOpt replicates");
  if (spec.repetitions != 1) {
    throw std::invalid_argument(
        "study 'hpo': repetitions must be 1 (one tuning run); for HOpt "
        "variance use kind 'variance' with params.hpo_algorithms");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.figure.algo);
  core::HpoRunConfig cfg;
  cfg.algorithm = algo.get();
  cfg.budget = spec.figure.budget;
  cfg.exec = exec_of(spec);
  rngx::VariationSeeds seeds;
  seeds.hpo = spec.seed;
  core::FitCounter fits;
  const double perf = core::run_pipeline_once(*cs.pipeline, *cs.pool,
                                              *cs.splitter, cfg, seeds, &fits);
  ResultTable t;
  t.columns = {"seq", "rep", "algo", "metric", "measure", "fits"};
  t.add_row({Cell{std::size_t{0}}, Cell{std::size_t{0}},
             Cell{std::string{algo->name()}},
             Cell{std::string{ml::to_string(cs.pipeline->metric())}},
             Cell{perf}, Cell{fits.fits.load()}});
  return t;
}

void summarize_hpo(const ResultTable& t, std::FILE* out) {
  const auto row = t.rows.at(0);
  std::fprintf(out, "%s on %s: final test %s = %.4f (%zu fits)\n",
               row[t.column_index("algo")].as_string().c_str(),
               t.spec.value().case_study.c_str(),
               row[t.column_index("metric")].as_string().c_str(),
               row[t.column_index("measure")].as_double(),
               static_cast<std::size_t>(
                   row[t.column_index("fits")].as_uint64()));
}

// ------------------------------------------------------------ estimator

ResultTable run_estimator(const StudySpec& spec) {
  if (spec.figure.estimators.empty()) {
    throw std::invalid_argument("study 'estimator': params.estimators empty");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.figure.hpo_algo);
  core::HpoRunConfig hpo_cfg;
  hpo_cfg.algorithm = algo.get();
  hpo_cfg.budget = spec.figure.hpo_budget;

  ResultTable t;
  t.columns = {"seq", "estimator", "rep", "measure"};
  const std::size_t k = spec.repetitions;
  const auto slice = slice_of(spec, k);
  std::size_t offset = 0;
  for (const auto& name : spec.figure.estimators) {
    const EstimatorName& est = estimator_by_name(name);
    // Per-estimator master stream derived from (seed, name): independent of
    // the estimator order and identical in every shard.
    rngx::Rng master{rngx::derive_seed(spec.seed, name)};
    const auto result =
        est.ideal
            ? core::ideal_estimator(exec_of(spec), *cs.pipeline, *cs.pool,
                                    *cs.splitter, hpo_cfg, k, slice, master)
            : core::fix_hopt_estimator(exec_of(spec), *cs.pipeline, *cs.pool,
                                       *cs.splitter, hpo_cfg, k, est.subset,
                                       slice, master);
    for (std::size_t j = 0; j < result.measures.size(); ++j) {
      const std::size_t rep = slice.begin + j;
      t.add_row({Cell{offset + rep}, Cell{name}, Cell{rep},
                 Cell{result.measures[j]}});
    }
    offset += k;
  }
  return t;
}

void summarize_estimator(const ResultTable& t, std::FILE* out) {
  const std::size_t est_col = t.column_index("estimator");
  const std::size_t measure_col = t.column_index("measure");
  std::vector<std::pair<std::string, std::vector<double>>> groups;
  for (const auto& row : t.rows) {
    const std::string name = row[est_col].as_string();
    if (groups.empty() || groups.back().first != name) {
      groups.emplace_back(name, std::vector<double>{});
    }
    groups.back().second.push_back(row[measure_col].as_double());
  }
  std::fprintf(out, "%-10s %6s %10s %10s\n", "estimator", "k", "mean", "std");
  for (const auto& [name, measures] : groups) {
    std::fprintf(out, "%-10s %6zu %10.4f %10.4f\n", name.c_str(),
                 measures.size(), stats::mean(measures),
                 stats::stddev(measures));
  }
}

// ------------------------------------------------------------ detection

ResultTable run_detection(const StudySpec& spec) {
  const auto& calib = casestudies::calibration_for(spec.case_study);
  const bool ideal = spec.figure.estimator == "ideal";
  if (!ideal && spec.figure.estimator != "biased") {
    throw std::invalid_argument("study 'detection': params.estimator must be "
                                "'ideal' or 'biased', got '" +
                                spec.figure.estimator + "'");
  }
  const auto profile = ideal
                           ? calib.ideal_profile()
                           : calib.profile(core::RandomizeSubset::kAll);
  const double delta = compare::published_improvement_delta(calib.sigma_ideal);
  std::vector<std::unique_ptr<compare::ComparisonCriterion>> criteria;
  criteria.push_back(
      std::make_unique<compare::OracleComparison>(calib.sigma_ideal));
  criteria.push_back(std::make_unique<compare::SinglePointComparison>(delta));
  criteria.push_back(std::make_unique<compare::AverageComparison>(delta));
  criteria.push_back(std::make_unique<compare::ProbOutperformCriterion>(
      spec.figure.gamma, spec.figure.resamples));

  compare::DetectionRateConfig cfg;
  cfg.k = spec.figure.k;
  cfg.simulations = spec.repetitions;
  cfg.gamma = spec.figure.gamma;
  cfg.p_grid = spec.figure.p_grid.empty() ? compare::default_p_grid()
                                             : spec.figure.p_grid;
  cfg.exec = exec_of(spec);

  const std::size_t rounds = cfg.p_grid.size() * cfg.simulations;
  const auto slice = slice_of(spec, rounds);
  rngx::Rng rng{spec.seed};
  const auto hits = compare::detection_rounds(
      profile, ideal ? compare::EstimatorKind::kIdeal
                     : compare::EstimatorKind::kBiased,
      criteria, cfg, slice, rng);

  ResultTable t;
  t.columns = {"seq", "p", "sim"};
  for (const auto& name : kDetectionCriteria) {
    t.columns.push_back(std::string{name});
  }
  for (std::size_t j = 0; j < hits.size(); ++j) {
    const std::size_t round = slice.begin + j;
    const std::size_t gi = round / cfg.simulations;
    const std::size_t si = round % cfg.simulations;
    Row row{Cell{round}, Cell{cfg.p_grid[gi]}, Cell{si}};
    for (const std::uint8_t h : hits[j]) {
      row.push_back(Cell{static_cast<std::size_t>(h)});
    }
    t.add_row(std::move(row));
  }
  return t;
}

void summarize_detection(const ResultTable& t, std::FILE* out) {
  const double gamma = t.spec.value().figure.gamma;
  const std::size_t p_col = t.column_index("p");
  std::vector<std::size_t> criterion_cols;
  for (const auto& name : kDetectionCriteria) {
    criterion_cols.push_back(t.column_index(std::string{name}));
  }
  // Grid points in first-appearance order; rows are round-ordered, so each
  // p value's rounds are contiguous.
  std::vector<double> p_grid;
  std::vector<std::vector<double>> rates(std::size(kDetectionCriteria));
  std::vector<double> counts;
  for (const auto& row : t.rows) {
    const double p = row[p_col].as_double();
    if (p_grid.empty() || p_grid.back() != p) {
      p_grid.push_back(p);
      counts.push_back(0.0);
      for (auto& r : rates) r.push_back(0.0);
    }
    counts.back() += 1.0;
    for (std::size_t ci = 0; ci < rates.size(); ++ci) {
      rates[ci].back() += row[criterion_cols[ci]].as_double();
    }
  }
  std::fprintf(out, "%-6s %-8s %8s %13s %9s %11s\n", "P(A>B)", "region",
               "oracle", "single_point", "average", "prob_outp.");
  for (std::size_t gi = 0; gi < p_grid.size(); ++gi) {
    const auto region = compare::classify_region(p_grid[gi], gamma);
    const char* label = region == compare::TruthRegion::kH0 ? "H0"
                        : region == compare::TruthRegion::kH1 ? "H1"
                                                              : "H0H1";
    std::fprintf(out, "%-6.2f %-8s %7.0f%% %12.0f%% %8.0f%% %10.0f%%\n",
                 p_grid[gi], label, 100.0 * rates[0][gi] / counts[gi],
                 100.0 * rates[1][gi] / counts[gi],
                 100.0 * rates[2][gi] / counts[gi],
                 100.0 * rates[3][gi] / counts[gi]);
  }
}

}  // namespace varbench::study::figures
