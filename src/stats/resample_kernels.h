// Column-contiguous resampling kernels (ROADMAP item 1 follow-up).
//
// The bootstrap/permutation machinery used to materialize a fresh
// std::vector<double> per resample and evaluate each statistic on the
// gathered copy. These kernels split that into (a) bulk index draws into
// per-thread reusable scratch (src/exec/scratch.h) and (b) fused
// gather+accumulate loops over std::span<const double> — tight, branch-
// light inner loops over contiguous data (VBT column spans qualify
// zero-copy), with no allocation in steady state.
//
// Bit-identity contract: every kernel reproduces the historical
// vector-materializing path exactly —
//   - fill_bootstrap_indices consumes rng draws in the same order as n
//     calls to Rng::uniform_index(pool) (the Lemire rejection threshold is
//     hoisted out of the loop; it depends only on `pool`, so the draw
//     sequence and accepted values are unchanged);
//   - the fused accumulators add in the same left-to-right order as the
//     statistics they replace (gather_mean == stats::mean of the gathered
//     copy, gather_win_rate == probability_of_outperforming of the
//     gathered pairs, and so on);
// so CIs, p-values, and golden report renders are byte-identical to the
// pre-kernel implementation. The one documented exception is the linear-
// time jackknife above kJackknifeLinearThreshold (see jackknife_mean_loo).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/rngx/rng.h"

namespace varbench::stats::kernels {

/// Fill `idx` with uniform indices in [0, pool), bit-identical to calling
/// `rng.uniform_index(pool)` once per element (same draws, same values) —
/// the bootstrap index-block primitive. IdxT is u32 in practice; callers
/// fall back to u64 for pools beyond 2^32-1 elements.
template <typename IdxT>
inline void fill_bootstrap_indices(rngx::Rng& rng, std::uint64_t pool,
                                   std::span<IdxT> idx) {
  if (idx.empty()) return;
  if (pool == 0) throw std::invalid_argument("uniform_index: n == 0");
  // Lemire rejection exactly as Rng::uniform_index, threshold hoisted.
  const std::uint64_t threshold = (~pool + 1) % pool;  // (2^64 - pool) % pool
  for (IdxT& v : idx) {
    std::uint64_t r = rng.next_u64();
    while (r < threshold) r = rng.next_u64();
    v = static_cast<IdxT>(r % pool);
  }
}

/// Gather x[idx[j]] into out[j] — the materializing resample, for callers
/// that still need the values (generic statistics).
template <typename IdxT>
inline void gather_values(std::span<const double> x, std::span<const IdxT> idx,
                          std::span<double> out) {
  for (std::size_t j = 0; j < idx.size(); ++j) out[j] = x[idx[j]];
}

/// Mean of the gathered resample, fused: identical bits to
/// stats::mean(gather) — one left-to-right sum, same division.
template <typename IdxT>
[[nodiscard]] inline double gather_mean(std::span<const double> x,
                                        std::span<const IdxT> idx) {
  double sum = 0.0;
  for (const IdxT i : idx) sum += x[i];
  return sum / static_cast<double>(idx.size());
}

/// P(A>B) win rate of the gathered pairs, fused: identical bits to
/// probability_of_outperforming(gather(a), gather(b)).
template <typename IdxT>
[[nodiscard]] inline double gather_win_rate(std::span<const double> a,
                                            std::span<const double> b,
                                            std::span<const IdxT> idx) {
  double wins = 0.0;
  for (const IdxT i : idx) {
    if (a[i] > b[i]) {
      wins += 1.0;
    } else if (a[i] == b[i]) {
      wins += 0.5;
    }
  }
  return wins / static_cast<double>(idx.size());
}

/// In-place Fisher–Yates over a span: same draws and swaps as
/// Rng::shuffle of an equal vector.
template <typename T>
inline void span_shuffle(std::span<T> v, rngx::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_index(i));
    std::swap(v[i - 1], v[j]);
  }
}

/// mean(pooled[0, na)) - mean(pooled[na, end)) with the two fused sums the
/// permutation test has always used — same bits.
[[nodiscard]] inline double segment_mean_diff(std::span<const double> pooled,
                                              std::size_t na) {
  double sum_a = 0.0;
  for (std::size_t i = 0; i < na; ++i) sum_a += pooled[i];
  double sum_b = 0.0;
  for (std::size_t i = na; i < pooled.size(); ++i) sum_b += pooled[i];
  return sum_a / static_cast<double>(na) -
         sum_b / static_cast<double>(pooled.size() - na);
}

/// One sign-flip replicate of the paired permutation test: flips each
/// difference by a bernoulli(0.5) draw (same draw order as ever) and
/// reports whether |mean| reached `threshold`.
[[nodiscard]] inline bool signflip_mean_extreme(std::span<const double> d,
                                                double threshold,
                                                rngx::Rng& rng) {
  double sum = 0.0;
  for (const double di : d) sum += rng.bernoulli(0.5) ? di : -di;
  return std::abs(sum / static_cast<double>(d.size())) >= threshold;
}

/// Sample sizes below this use the exact quadratic jackknife (fold-left
/// sum skipping element i — bit-identical to mean() of the copied
/// leave-one-out sample at any thread count). At or above it,
/// jackknife_mean_loo switches to the linear prefix/suffix decomposition:
/// still deterministic and thread-invariant, but a different floating-
/// point association than the textbook fold, so BCa intervals over very
/// large columns may differ from the (quadratic) historical path in the
/// last ulps. Golden renders and report fixtures are far below this size.
inline constexpr std::size_t kJackknifeLinearThreshold = 4096;

/// Leave-one-out means for the BCa acceleration constant:
/// loo[i] = mean(x without element i). Parallel over `ctx`, deterministic
/// at any thread count. See kJackknifeLinearThreshold for the exact-vs-
/// linear regime split.
void jackknife_mean_loo(const exec::ExecContext& ctx,
                        std::span<const double> x, std::span<double> loo);

/// Per-resample means over `num_resamples` bootstrap resamples of `x`,
/// stream tag "bootstrap" — consumes `rng` and the per-resample streams
/// exactly like the historical percentile/BCa resampling loop.
[[nodiscard]] std::vector<double> resample_mean_statistics(
    const exec::ExecContext& ctx, std::span<const double> x, rngx::Rng& rng,
    std::size_t num_resamples);

/// Per-resample P(A>B) win rates over paired resamples of (a, b), stream
/// tag "paired_bootstrap" — consumes streams exactly like the historical
/// paired resampling loop.
[[nodiscard]] std::vector<double> resample_win_rate_statistics(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng, std::size_t num_resamples);

}  // namespace varbench::stats::kernels
