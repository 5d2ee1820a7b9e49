// The paper's two estimators of the expected empirical risk µ = R̂_P (§3.2):
//
//   IdealEst(k)        — Algorithm 1: every measurement re-randomizes all of
//                        ξ = ξO ∪ ξH, including an independent HOpt run.
//                        Unbiased; costs O(k·T) fits.
//   FixHOptEst(k, ·)   — Algorithm 2: HOpt runs once; the k measurements
//                        re-randomize only a chosen subset of ξO.
//                        Biased; costs O(k+T) fits. The paper's key result:
//                        randomizing MORE sources (All ⊃ Data ⊃ Init)
//                        decorrelates measurements and shrinks the variance.
#pragma once

#include <string_view>
#include <vector>

#include "src/core/pipeline.h"
#include "src/exec/parallel_replicate.h"
#include "src/rngx/variation.h"

namespace varbench::core {

/// Which subset of ξO the biased estimator re-randomizes between
/// measurements (Fig. 5's FixHOptEst(k, Init/Data/All) variants).
enum class RandomizeSubset : int {
  kInit,  // weight initialization only — today's predominant practice
  kData,  // bootstrap data split only
  kAll,   // every ξO source (split, order, augment, init, dropout)
};

[[nodiscard]] std::string_view to_string(RandomizeSubset subset);

/// Measurements and summary statistics returned by either estimator.
struct EstimatorResult {
  std::vector<double> measures;  // the k performance measures p_i
  double mean = 0.0;             // µ̂(k) or µ̃(k)
  double stddev = 0.0;           // σ̂(k) or σ̃(k)
  std::size_t fits = 0;          // total Opt() invocations

  [[nodiscard]] std::size_t k() const noexcept { return measures.size(); }
};

/// Algorithm 1 (IdealEst). Requires O(k·(T+1)) fits.
///
/// The k measurements are independent given per-index RNG streams; `ctx`
/// fans them out with the usual thread-count-invariance guarantee, and
/// `range` restricts the run to the global measurement indices
/// [range.begin, range.end) of a k-measurement estimate ({0, k} for the
/// whole estimate; shard execution: the subrange's measures are
/// bit-identical to the corresponding slice of the full run). Exactly one
/// u64 is drawn from `master` regardless of k, range, and thread count.
[[nodiscard]] EstimatorResult ideal_estimator(
    const exec::ExecContext& ctx, const LearningPipeline& pipeline,
    const ml::Dataset& pool, const Splitter& splitter, const HpoRunConfig& hpo,
    std::size_t k, exec::IndexRange range, rngx::Rng& master);

/// Algorithm 2 (FixHOptEst). Requires O(k+T) fits. `subset` selects which
/// ξO sources are re-randomized between the k measurements. Stage 1 (the
/// single HOpt fixing λ̂*) always runs in full — shard runs repeat it — so
/// that every shard measures against the same λ̂*; `range` then restricts
/// stage 2 exactly as for ideal_estimator.
[[nodiscard]] EstimatorResult fix_hopt_estimator(
    const exec::ExecContext& ctx, const LearningPipeline& pipeline,
    const ml::Dataset& pool, const Splitter& splitter, const HpoRunConfig& hpo,
    std::size_t k, RandomizeSubset subset, exec::IndexRange range,
    rngx::Rng& master);

/// Theoretical fit-cost of each estimator (Fig. 4's O(k·T) vs O(k+T)),
/// used to derive the paper's 51× compute-saving claim.
[[nodiscard]] std::size_t ideal_estimator_cost(std::size_t k, std::size_t t);
[[nodiscard]] std::size_t fix_hopt_estimator_cost(std::size_t k, std::size_t t);

/// Variance of the biased estimator's mean from Eq. 7:
///   Var(µ̃(k)|ξ) = V/k + (k−1)/k·ρ·V
[[nodiscard]] double biased_estimator_variance(double var_single, double rho,
                                               std::size_t k);

}  // namespace varbench::core
