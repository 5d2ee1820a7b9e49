// Benchmarks with many contestants (paper §6): pairwise P(A>B) matrices,
// Bonferroni-adjusted decisions, the paper's §5 recommendation to report
// the whole top group rather than a single winner, and bootstrap analysis
// of ranking stability ("a different choice of test sets might have led to
// a slightly modified ranking").
#pragma once

#include <string>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/math/matrix.h"
#include "src/rngx/rng.h"
#include "src/stats/prob_outperform.h"

namespace varbench::compare {

/// Paired measurements of several contestants: scores[a] is contestant a's
/// performance on each of the shared k splits/seeds.
using ContestantScores = std::vector<std::vector<double>>;

/// P(i>j) for every ordered pair, from paired win rates (Eq. 9).
/// Diagonal entries are 0.5.
[[nodiscard]] math::Matrix pairwise_pab_matrix(const ContestantScores& scores);

struct TopGroupResult {
  std::size_t best = 0;                // argmax of mean performance
  std::vector<std::size_t> group;      // best + all not significantly worse
  double adjusted_alpha = 0.05;        // after Bonferroni over comparisons
};

/// The §5 recommendation: highlight the best performer AND every contestant
/// whose comparison against it is not both significant and meaningful, at a
/// Bonferroni-corrected level over the m = n-1 comparisons. Each comparison
/// runs on its own derived RNG stream, so the group is bit-identical for
/// every `ctx.num_threads`.
[[nodiscard]] TopGroupResult significance_top_group(
    const exec::ExecContext& ctx, const ContestantScores& scores,
    rngx::Rng& rng, double gamma = stats::kDefaultGamma, double alpha = 0.05,
    std::size_t num_resamples = 500);

struct RankingStability {
  // rank_probability(a, r): probability contestant a lands at rank r
  // (0 = first) under bootstrap resampling of the splits.
  math::Matrix rank_probability;
  std::vector<double> prob_first;  // per contestant
};

/// Bootstrap the k paired splits and recompute the ranking each time.
/// Each resample runs on its own derived RNG stream (thread-count invariant).
[[nodiscard]] RankingStability ranking_stability(
    const exec::ExecContext& ctx, const ContestantScores& scores,
    rngx::Rng& rng, std::size_t num_resamples = 1000);

}  // namespace varbench::compare
