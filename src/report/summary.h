// The column-wise summary engine: every statistic the paper derives from
// raw per-repetition measures — mean/std/min/max/median, percentile or BCa
// bootstrap CIs of the mean, Shapiro–Wilk normality flags, and (for two
// groups or two artifacts) P(A>B) with its bootstrap CI and a permutation
// test — computed from any complete ResultTable with no producing spec
// required. All resampling fans out through exec::parallel_replicate_range on
// per-index streams, so a report is bit-identical at every thread count
// and across sharded-vs-unsharded inputs (docs/reporting.md).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/report/artifact.h"
#include "src/report/report_spec.h"
#include "src/stats/bootstrap.h"
#include "src/stats/shapiro_wilk.h"

namespace varbench::report {

struct ColumnSummary {
  std::string group;   // group-by value; "" when the table is one group
  std::string column;
  std::size_t n = 0;        // numeric cells summarized
  std::size_t missing = 0;  // null cells skipped
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  /// Bootstrap CI of the mean (method/level from the spec); absent when
  /// "ci" is not a selected estimator or n < 3.
  std::optional<stats::ConfidenceInterval> ci_mean;
  /// Shapiro–Wilk normality test; absent when "normality" is not selected
  /// or the sample is outside the test's domain (n < 3, n > 5000,
  /// constant).
  std::optional<stats::ShapiroWilkResult> normality;
};

struct ComparisonSummary {
  std::string column;
  std::string label_a;
  std::string label_b;
  std::size_t n_a = 0;
  std::size_t n_b = 0;
  /// Equal sample sizes are compared paired by row order (the artifact
  /// convention for paired designs, App. C.2); unequal sizes fall back to
  /// the Mann–Whitney estimate of P(A>B) and an unpaired permutation test.
  bool paired = false;
  double mean_a = 0.0;
  double mean_b = 0.0;
  double p_a_greater_b = 0.5;
  /// Paired bootstrap CI of P(A>B); absent for unpaired comparisons.
  std::optional<stats::ConfidenceInterval> ci;
  /// The paper's three-zone decision at the spec's gamma; "" when unpaired
  /// (no CI to decide with).
  std::string conclusion;
  /// Two-sided permutation-test p-value for mean(A) == mean(B) (sign-flip
  /// when paired, label reshuffle when not).
  double permutation_p = 1.0;
};

/// Everything rendered derives from artifact *identity* (name, seed, rows,
/// spec) — never from file paths or execution provenance — so the same
/// study reports byte-identically whether it was loaded from the unsharded
/// artifact, a merged shard set, or a campaign output. The one exception
/// is the explicit campaign provenance block, which only a directory
/// report carries.
struct Report {
  std::string title;
  std::uint64_t seed = 0;   // the artifact's identity seed
  std::size_t rows = 0;
  ReportSpec spec;          // the resolved spec the report was computed with
  std::vector<ColumnSummary> columns;
  std::vector<ComparisonSummary> comparisons;
  std::optional<CampaignProvenance> provenance;
};

/// The columns the spec selects for `table`: spec.columns when given
/// (validated to exist and be numeric), else every numeric column minus
/// the index columns ("seq", "rep", "sim") and the group-by key. Throws
/// io::JsonError when the selection is empty or names a missing column.
[[nodiscard]] std::vector<std::string> resolve_columns(
    const study::ResultTable& table, const ReportSpec& spec);

/// Summarize one complete artifact: per-(group, column) summaries, plus
/// the P(A>B)/permutation comparison when group_by yields exactly two
/// groups. Throws std::invalid_argument on a partial (shard) table and
/// io::JsonError on bad column selections.
[[nodiscard]] Report summarize(const exec::ExecContext& ctx,
                               const LoadedArtifact& artifact,
                               const ReportSpec& spec);

/// Summarize two artifacts side by side (groups "A" and "B") and compare
/// every selected column the tables share. group_by is ignored here — the
/// artifacts themselves are the two groups.
[[nodiscard]] Report summarize_compare(const exec::ExecContext& ctx,
                                       const LoadedArtifact& a,
                                       const LoadedArtifact& b,
                                       const ReportSpec& spec);

}  // namespace varbench::report
