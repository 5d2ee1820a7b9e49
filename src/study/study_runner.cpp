#include "src/study/study_runner.h"

#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>

#include "src/casestudies/calibration.h"
#include "src/casestudies/registry.h"
#include "src/compare/criteria.h"
#include "src/compare/error_rates.h"
#include "src/core/estimators.h"
#include "src/core/variance_study.h"
#include "src/exec/parallel_replicate.h"
#include "src/io/json.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/rngx/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/study/figures/figures.h"
#include "src/version.h"

namespace varbench::study {

namespace {

exec::ExecContext exec_of(const StudySpec& spec) {
  return exec::ExecContext{spec.threads};
}

exec::IndexRange slice_of(const StudySpec& spec, std::size_t n) {
  return exec::shard_subrange(n, spec.shard.index, spec.shard.count);
}

void require_unsharded(const StudySpec& spec, std::string_view why) {
  if (!spec.shard.is_unsharded()) {
    throw std::invalid_argument(
        "study '" + std::string{to_string(spec.kind)} + "' cannot be " +
        "sharded: " + std::string{why} + " (drop --shard / the shard block)");
  }
}

// ------------------------------------------------------------- variance

ResultTable run_variance(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  core::VarianceStudyConfig cfg;
  cfg.repetitions = spec.repetitions;
  cfg.hpo_algorithms = spec.variance.hpo_algorithms;
  cfg.hpo_repetitions = spec.resolved_hpo_repetitions();
  cfg.hpo_budget = spec.variance.hpo_budget;
  cfg.include_numerical_noise = spec.variance.include_numerical_noise;
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
  for (const Row& row : t.rows) {
    const std::string& label = row[source_col].as_string();
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

ResultTable run_compare(const StudySpec& spec) {
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto [params_a, params_b] =
      compare_configs(*cs.pipeline, spec.compare.lr_mult);

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
      pa, pb, rng, spec.compare.gamma, spec.compare.num_resamples);
  std::fprintf(out, "mean A = %.4f, mean B = %.4f\n", stats::mean(pa),
               stats::mean(pb));
  std::fprintf(out, "P(A>B) = %.3f, CI [%.3f, %.3f], gamma = %.2f\n",
               r.p_a_greater_b, r.ci.lower, r.ci.upper, spec.compare.gamma);
  std::fprintf(out, "conclusion: %s\n",
               std::string(stats::to_string(r.conclusion)).c_str());
}

// ------------------------------------------------------------------ hpo

ResultTable run_hpo_study(const StudySpec& spec) {
  require_unsharded(spec,
                    "one HOpt run is inherently sequential; use the "
                    "variance study's hpo rows for HOpt replicates");
  if (spec.repetitions != 1) {
    throw std::invalid_argument(
        "study 'hpo': repetitions must be 1 (one tuning run); for HOpt "
        "variance use kind 'variance' with params.hpo_algorithms");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.hpo.algo);
  core::HpoRunConfig cfg;
  cfg.algorithm = algo.get();
  cfg.budget = spec.hpo.budget;
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
  const Row& row = t.rows.at(0);
  std::fprintf(out, "%s on %s: final test %s = %.4f (%zu fits)\n",
               row[t.column_index("algo")].as_string().c_str(),
               t.spec.value().case_study.c_str(),
               row[t.column_index("metric")].as_string().c_str(),
               row[t.column_index("measure")].as_double(),
               static_cast<std::size_t>(
                   row[t.column_index("fits")].as_uint64()));
}

// ------------------------------------------------------------ estimator

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

ResultTable run_estimator(const StudySpec& spec) {
  if (spec.estimator.estimators.empty()) {
    throw std::invalid_argument("study 'estimator': params.estimators empty");
  }
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto algo = hpo::make_hpo_algorithm(spec.estimator.hpo_algo);
  core::HpoRunConfig hpo_cfg;
  hpo_cfg.algorithm = algo.get();
  hpo_cfg.budget = spec.estimator.hpo_budget;

  ResultTable t;
  t.columns = {"seq", "estimator", "rep", "measure"};
  const std::size_t k = spec.repetitions;
  const auto slice = slice_of(spec, k);
  std::size_t offset = 0;
  for (const auto& name : spec.estimator.estimators) {
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
  for (const Row& row : t.rows) {
    const std::string& name = row[est_col].as_string();
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

constexpr std::string_view kDetectionCriteria[] = {
    "oracle", "single_point", "average", "prob_outperforming"};

ResultTable run_detection(const StudySpec& spec) {
  const auto& calib = casestudies::calibration_for(spec.case_study);
  const bool ideal = spec.detection.estimator == "ideal";
  if (!ideal && spec.detection.estimator != "biased") {
    throw std::invalid_argument("study 'detection': params.estimator must be "
                                "'ideal' or 'biased', got '" +
                                spec.detection.estimator + "'");
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
      spec.detection.gamma, spec.detection.resamples));

  compare::DetectionRateConfig cfg;
  cfg.k = spec.detection.k;
  cfg.simulations = spec.repetitions;
  cfg.gamma = spec.detection.gamma;
  cfg.p_grid = spec.detection.p_grid.empty() ? compare::default_p_grid()
                                             : spec.detection.p_grid;
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
  const double gamma = t.spec.value().detection.gamma;
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
  for (const Row& row : t.rows) {
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

// ------------------------------------------------------------- registry

std::map<StudyKind, StudyRunner>& runner_map() {
  static std::map<StudyKind, StudyRunner> runners = [] {
    std::map<StudyKind, StudyRunner> m;
    m[StudyKind::kVariance] = run_variance;
    m[StudyKind::kCompare] = run_compare;
    m[StudyKind::kHpo] = run_hpo_study;
    m[StudyKind::kEstimator] = run_estimator;
    m[StudyKind::kDetection] = run_detection;
    for (const auto& def : figures::all_figures()) {
      m[def.kind] = def.run;
    }
    return m;
  }();
  return runners;
}

void validate_case_study(const StudySpec& spec) {
  const auto ids = casestudies::case_study_ids();
  for (const auto& id : ids) {
    if (id == spec.case_study) return;
  }
  std::string known;
  for (const auto& id : ids) {
    if (!known.empty()) known += ", ";
    known += "'" + id + "'";
  }
  throw std::invalid_argument("spec: unknown case study '" + spec.case_study +
                              "' (known: " + known + ")");
}

}  // namespace

void register_study_runner(StudyKind kind, StudyRunner runner) {
  runner_map()[kind] = std::move(runner);
}

bool has_study_runner(StudyKind kind) {
  return runner_map().count(kind) != 0;
}

void validate_study_spec(const StudySpec& spec) {
  if (runner_map().count(spec.kind) == 0) {
    throw std::invalid_argument("run_study: no runner registered for kind '" +
                                std::string{to_string(spec.kind)} + "'");
  }
  if (const auto* def = figures::find_figure(spec.kind)) {
    // Figure kinds validate their own task sets ("all"/"synthetic" are
    // legal, figure.tasks names the real studies); analytic kinds
    // enumerate a fixed grid, so a repetitions override would silently
    // mean nothing — reject it instead.
    if (def->fixed_repetitions && spec.repetitions != 1) {
      throw std::invalid_argument(
          "study '" + std::string{def->name} + "' enumerates a fixed grid; " +
          "'repetitions' must stay 1 (shard the grid with --shard instead)");
    }
  } else {
    validate_case_study(spec);
  }
}

ResultTable run_study(const StudySpec& spec) {
  validate_study_spec(spec);
  const auto it = runner_map().find(spec.kind);
  metrics::Sink& sink = metrics::global_sink();
  std::uint64_t study_ident = 0;
  if (sink.is_enabled(metrics::kStudyRun)) {
    const std::string tag =
        std::string{to_string(spec.kind)} + ":" + spec.case_study;
    study_ident = rngx::hash_tag(tag);
    sink.set_label(study_ident, tag);
  }
  const metrics::ScopedSpan study_span{sink, metrics::kStudyRun, study_ident};
  // wall_time_ms is provenance, not identity: it is stripped by
  // --canonical and never merged or compared.
  const metrics::Stopwatch stopwatch;
  ResultTable table = it->second(spec);
  const std::uint64_t elapsed_ns = stopwatch.elapsed_ns();

  table.name = std::string{to_string(spec.kind)} + ":" + spec.case_study;
  // The stored spec is the study's identity: shard and threads are
  // execution details (results are invariant to both), so they are
  // normalized away; provenance records the actual values.
  StudySpec normalized = spec;
  normalized.shard = ShardSpec{};
  normalized.threads = 1;
  table.spec = std::move(normalized);
  table.shard = spec.shard;
  table.seed = spec.seed;
  table.threads = spec.threads;
  table.wall_time_ms = static_cast<double>(elapsed_ns) / 1e6;
  return table;
}

std::vector<StudyKindInfo> registered_study_kinds() {
  // Titles for the original kinds; the kind enumeration itself comes from
  // base_study_kinds() (the parser's own name table), so a kind added
  // there appears here automatically — at worst with the fallback title.
  const auto base_title = [](StudyKind kind) -> std::string_view {
    switch (kind) {
      case StudyKind::kVariance:
        return "§2.2 variance-source decomposition of one case study";
      case StudyKind::kCompare:
        return "§4/App. C paired comparison with the P(A>B) test";
      case StudyKind::kHpo:
        return "one HOpt run (inherently sequential)";
      case StudyKind::kEstimator:
        return "§3.2 IdealEst / FixHOptEst sweep on one case study";
      case StudyKind::kDetection:
        return "§4.2 detection-rate simulation for one calibration";
      default:
        return "(no description registered)";
    }
  };
  std::vector<StudyKindInfo> out;
  const auto param_keys = [](const StudySpec& spec) {
    const io::Json doc = spec.to_json();
    std::vector<std::string> keys;
    for (const auto& [key, value] : doc.at("params").as_object()) {
      keys.push_back(key);
    }
    return keys;
  };
  for (const StudyKind kind : base_study_kinds()) {
    StudySpec spec;
    spec.kind = kind;
    out.push_back(StudyKindInfo{kind, std::string{to_string(kind)},
                                std::string{base_title(kind)},
                                kind != StudyKind::kHpo, param_keys(spec)});
  }
  for (const auto& def : figures::all_figures()) {
    out.push_back(StudyKindInfo{def.kind, std::string{def.name},
                                std::string{def.title}, true,
                                param_keys(figures::default_figure_spec(
                                    def.kind))});
  }
  return out;
}

std::string list_study_kinds_text() {
  std::string out = "registered study kinds (varbench run dispatches on "
                    "spec 'kind'):\n";
  for (const auto& info : registered_study_kinds()) {
    out += "  " + info.name;
    out.append(info.name.size() < 26 ? 26 - info.name.size() : 1, ' ');
    out += info.title + "\n";
    out += "    ";
    out += info.shardable ? "shardable" : "not shardable";
    if (!info.param_keys.empty()) {
      out += "; params:";
      for (const auto& key : info.param_keys) out += " " + key;
    }
    out += "\n";
  }
  return out;
}

io::Json study_kinds_json() {
  io::Json kinds = io::Json::array();
  for (const auto& info : registered_study_kinds()) {
    io::Json item = io::Json::object();
    item.set("name", info.name);
    item.set("title", info.title);
    item.set("shardable", info.shardable);
    io::Json params = io::Json::array();
    for (const auto& key : info.param_keys) params.push_back(io::Json{key});
    item.set("params", std::move(params));
    kinds.push_back(std::move(item));
  }
  return kinds;
}

std::string list_study_kinds_json() {
  io::Json doc = io::Json::object();
  doc.set("tool", "varbench");
  doc.set("version", std::string{kVersion});
  doc.set("kinds", study_kinds_json());
  return doc.dump(2) + "\n";
}

void print_summary(const ResultTable& table, std::FILE* out) {
  if (!table.is_complete()) {
    std::fprintf(out,
                 "partial artifact: shard %s of '%s' (%zu rows) — run "
                 "`varbench merge` over all %zu shard files for summaries\n",
                 table.shard.label().c_str(), table.name.c_str(),
                 table.rows.size(), table.shard.count);
    return;
  }
  if (!table.spec.has_value()) {
    std::fprintf(out, "'%s': %zu rows × %zu columns (seed %llu)\n",
                 table.name.c_str(), table.rows.size(), table.columns.size(),
                 static_cast<unsigned long long>(table.seed));
    return;
  }
  if (const auto* def = figures::find_figure(table.spec->kind)) {
    def->summarize(table, out);
    return;
  }
  switch (table.spec->kind) {
    case StudyKind::kVariance:
      summarize_variance(table, out);
      return;
    case StudyKind::kCompare:
      summarize_compare(table, out);
      return;
    case StudyKind::kHpo:
      summarize_hpo(table, out);
      return;
    case StudyKind::kEstimator:
      summarize_estimator(table, out);
      return;
    case StudyKind::kDetection:
      summarize_detection(table, out);
      return;
    default:
      return;  // figure kinds handled above
  }
}

}  // namespace varbench::study
