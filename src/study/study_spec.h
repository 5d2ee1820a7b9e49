// Experiments-as-data: a StudySpec is the complete, serializable
// description of one of the paper's workflows — which study to run, on
// which case study, at what scale/seed/size — with kind-specific knobs in
// a typed params block. Specs round-trip losslessly through JSON
// (`parse(serialize(spec)) == spec`), ship to other processes, and carry
// an optional `shard i/N`
// that partitions the repetition index range for multi-process fan-out
// (docs/study_api.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/json.h"

namespace varbench::study {

/// The workflows reachable through run_study(). Enumerator i is row i of
/// the kind table (src/study/study_kinds.cpp), which binds everything else
/// about the kind; a new kind is an enumerator plus one row.
enum class StudyKind : int {
  kVariance,   // §2.2 variance-source decomposition (Fig. 1)
  kCompare,    // §4/App. C paired comparison with the P(A>B) test
  kHpo,        // one HOpt run (tuning showcase; sequential)
  kEstimator,  // §3.2 IdealEst / FixHOptEst sweep (Fig. 5 empirical)
  kDetection,  // §4.2 detection-rate simulation (Fig. 6)

  // Figure/table study kinds (src/study/figures/): each reproduces one of
  // the paper's headline artifacts as a raw-measure ResultTable, shardable
  // through the same `--shard i/N` + merge contract as the kinds above.
  kFig01VarianceSources,   // Fig. 1 across every case study
  kFig02Binomial,          // Fig. 2 binomial model of test-set noise
  kFig03Sota,              // Fig. 3 published SOTA increments vs σ
  kFig04EstimatorCost,     // Fig. 4 / §3.3 fit-count cost accounting
  kFig05EstimatorStderr,   // Fig. 5 / H.4 estimator stderr vs k
  kFig06DetectionRates,    // Fig. 6 detection-rate curves, all tasks
  kFigC1SampleSize,        // Fig. C.1 Noether minimum sample size
  kFigF2HpoCurves,         // Fig. F.2 HPO optimization curves
  kFigG3Normality,         // Fig. G.3 per-source normality
  kFigH5MseDecomposition,  // Fig. H.5 estimator MSE decomposition
  kFigI6Robustness,        // Fig. I.6 robustness vs k and γ
  kAblationPairing,        // App. C.2 paired-vs-unpaired ablation
  kAblationSplitters,      // App. B splitter-strategy ablation
  kMultiContestants,       // §6 many-contestant competition
  kMultiDataset,           // §6 comparison across datasets
  kTable8MhcModels,        // Tables 8/9 MHC model-design comparison
  kTableDSearchSpaces,     // Tables 2/3/5/6 search-space dump
};

[[nodiscard]] std::string_view to_string(StudyKind kind);
/// Throws io::JsonError listing the valid kinds on unknown input.
[[nodiscard]] StudyKind study_kind_from_string(std::string_view name);

/// A contiguous slice i of N of every repetition index range in the study.
/// {0, 1} is the unsharded run. Because repetition RNG streams are keyed by
/// the global repetition index, shard artifacts merge into the exact
/// unsharded result (docs/study_api.md).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool is_unsharded() const { return count == 1; }
  [[nodiscard]] std::string label() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }
  /// Parse "i/N"; throws io::JsonError on malformed input or i >= N.
  [[nodiscard]] static ShardSpec parse(std::string_view text);

  friend bool operator==(const ShardSpec&, const ShardSpec&) = default;
};

/// The one params pool every study kind draws from. Each kind declares the
/// subset of fields it serializes and parses (its row of the kind table,
/// src/study/study_kinds.cpp), so a spec stays strict: keys a kind does not
/// declare are unknown keys. The initializers are the base kinds' defaults;
/// figure kinds set their own in their row's `defaults`. Members follow
/// the serialized key order, which the field table in study_spec.cpp fixes.
struct StudyParams {
  /// Case studies / calibrations a figure spans; empty → the kind's full
  /// default set (all registered tasks for most kinds).
  std::vector<std::string> tasks;
  // Estimator run order; valid names: "ideal", "fix_init", "fix_data",
  // "fix_all".
  std::vector<std::string> estimators{"ideal", "fix_init", "fix_data",
                                      "fix_all"};
  std::vector<std::string> hpo_algorithms{"random_search"};
  std::string hpo_algo = "random_search";  // estimator's HOpt algorithm
  std::size_t hpo_repetitions = 0;  // 0 → max(3, repetitions / 4)
  std::size_t hpo_budget = 10;      // T per HOpt run / probe
  bool include_numerical_noise = true;
  std::string algo = "bayes_opt";  // the hpo kind's algorithm
  std::size_t budget = 20;         // trials per HOpt run (hpo, figF2)
  double lr_mult = 0.2;  // compare: algorithm B = defaults with lr × this
  std::string estimator = "biased";  // "ideal" | "biased" (FixHOptEst(k,All))
  std::size_t k = 50;     // measures per side / per realization
  double gamma = 0.75;    // H1 threshold of the P(A>B) criteria
  std::size_t resamples = 100;       // bootstrap resamples inside criteria
  std::size_t num_resamples = 1000;  // compare: bootstrap resamples for the CI
  std::vector<std::size_t> k_grid;   // fig04, fig05, figI6 x-axes
  std::vector<std::size_t> t_grid;   // fig04 HOpt budgets
  std::vector<double> gamma_grid;    // figC1, figI6
  std::vector<double> beta_grid;     // figC1 power targets
  std::vector<double> p_grid;  // true-P(A>B) grid; empty → default_p_grid()
  std::vector<double> edges;   // ablation_pairing true mean edges

  friend bool operator==(const StudyParams&, const StudyParams&) = default;
};

/// The experiment description: common fields, then the params pool, of
/// which `kind` selects the serialized and parsed subset.
struct StudySpec {
  StudyKind kind = StudyKind::kVariance;
  /// Registry id, e.g. "cifar10_vgg11". Figure kinds that span several
  /// tasks default it to "all" (the actual set lives in figure.tasks);
  /// setting a concrete id narrows a multi-task figure to that one task,
  /// overriding figure.tasks. Purely synthetic figures use "synthetic".
  /// Required by the kinds whose defaults leave it empty (the original
  /// five), defaulted per kind for figure kinds.
  std::string case_study;
  double scale = 0.25;     // data-pool / epoch scale in (0, 1]
  std::uint64_t seed = 42;
  /// The shardable repetition count; per-kind meaning: variance →
  /// repetitions per source, compare → paired runs, hpo → must be 1,
  /// estimator → k measurements per estimator, detection → simulation
  /// rounds per grid point.
  std::size_t repetitions = 20;
  std::size_t threads = 1;  // 0 = all hardware threads; results invariant
  ShardSpec shard;

  // Named for the figure kinds it first served; perfbench/probe.cpp reads it.
  StudyParams figure;

  friend bool operator==(const StudySpec&, const StudySpec&) = default;

  [[nodiscard]] std::size_t resolved_hpo_repetitions() const {
    return figure.hpo_repetitions != 0
               ? figure.hpo_repetitions
               : std::max<std::size_t>(3, repetitions / 4);
  }

  /// Serialize; `shard` is emitted only when sharded, so the unsharded
  /// normal form is canonical.
  [[nodiscard]] io::Json to_json() const;
  [[nodiscard]] std::string to_json_text() const;  // pretty, '\n'-terminated

  /// Parse + validate. Throws io::JsonError with an actionable message on
  /// missing/unknown keys, unknown kinds, out-of-range values.
  [[nodiscard]] static StudySpec from_json(const io::Json& doc);
  [[nodiscard]] static StudySpec from_json_text(std::string_view text);
};

/// A spec holding the kind's defaults (its row's `defaults`): what
/// from_json({"kind": K}) parses to, and the starting point of
/// programmatic builders. Round-trips strictly through JSON once a kind
/// whose defaults leave case_study empty gets one.
[[nodiscard]] StudySpec default_spec(StudyKind kind);

/// Apply a `--set key=value` override to a raw spec document before typed
/// parsing. `key` is a dotted path ("seed", "params.gamma"); `value` is
/// parsed as JSON when possible (numbers, bools, arrays), else taken as a
/// string. Intermediate objects are created as needed.
void apply_override(io::Json& doc, std::string_view key,
                    std::string_view value);
/// Split "key=value" and apply; throws io::JsonError when '=' is missing.
void apply_override(io::Json& doc, std::string_view assignment);

}  // namespace varbench::study
