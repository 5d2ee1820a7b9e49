// Classical hypothesis tests used in benchmark comparisons:
// Welch's t-test, Mann–Whitney U, Wilcoxon signed-rank — plus their
// distribution-free Monte-Carlo counterparts (permutation tests), which run
// on per-permutation RNG streams (src/exec/parallel_replicate.h) and are
// therefore bit-identical at every thread count (docs/determinism.md).
#pragma once

#include <cstddef>
#include <span>

#include "src/exec/exec_context.h"
#include "src/rngx/rng.h"

namespace varbench::stats {

struct TestResult {
  double statistic = 0.0;
  double p_value = 1.0;  // two-sided unless stated otherwise

  friend bool operator==(const TestResult&, const TestResult&) = default;
};

/// Welch's two-sample t-test of H0: mean(a) == mean(b) (unequal variances).
[[nodiscard]] TestResult welch_t_test(std::span<const double> a,
                                      std::span<const double> b);

struct MannWhitneyResult {
  double u_statistic = 0.0;   // U for sample A
  double p_value = 1.0;       // two-sided, normal approximation
  double prob_a_greater = 0.5;  // U / (nA·nB): estimate of P(A > B)
};

/// Mann–Whitney U test with tie correction (normal approximation).
/// `prob_a_greater` is the common-language effect size U/(nA·nB), the
/// quantity the paper's P(A>B) criterion builds on (Perme & Manevski 2019).
[[nodiscard]] MannWhitneyResult mann_whitney_u(std::span<const double> a,
                                               std::span<const double> b);

/// Wilcoxon signed-rank test for paired samples (normal approximation,
/// zero-differences dropped) — the Demšar (2006) recommendation discussed
/// in §6 for cross-dataset comparisons.
[[nodiscard]] TestResult wilcoxon_signed_rank(std::span<const double> a,
                                              std::span<const double> b);

/// Bonferroni-corrected significance level for m comparisons (§6).
[[nodiscard]] double bonferroni_alpha(double alpha, std::size_t m);

/// Two-sample Monte-Carlo permutation test of H0: mean(a) == mean(b).
/// `statistic` is the observed mean(a) − mean(b); `p_value` is the
/// two-sided add-one permutation p-value (1 + #{|perm| ≥ |obs|}) / (1 + R)
/// over R label reshuffles of the pooled sample. Permutations fan out
/// through exec::parallel_replicate_range — each permutation index owns an
/// RNG stream derived from (rng, "permutation", index), so the result is
/// bit-identical for every thread count.
[[nodiscard]] TestResult permutation_test_mean_diff(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng,
    std::size_t num_permutations = 10000);

/// Paired-sample sign-flip permutation test of H0: mean(a − b) == 0.
/// Each permutation flips the sign of every paired difference with
/// probability 1/2 (the exact null for exchangeable pairs); p-value and
/// determinism contract as in permutation_test_mean_diff.
[[nodiscard]] TestResult paired_permutation_test(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng,
    std::size_t num_permutations = 10000);

}  // namespace varbench::stats
