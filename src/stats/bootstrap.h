// Bootstrap confidence intervals (Efron 1982, 1987): the percentile and
// BCa intervals of a sample mean, and the percentile interval of the
// P(A>B) win rate — the paper's recommended CI for comparisons (Appendix
// C.5). All three run on the allocation-free kernels of
// src/stats/resample_kernels.h.
#pragma once

#include <span>

#include "src/exec/exec_context.h"
#include "src/rngx/rng.h"

namespace varbench::stats {

struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  double level = 0.95;  // 1 - alpha

  friend bool operator==(const ConfidenceInterval&,
                         const ConfidenceInterval&) = default;
};

/// Percentile-bootstrap CI of the mean of `x`: the (α/2, 1−α/2) percentile
/// pair of the means of `num_resamples` bootstrap resamples.
///
/// Resample i draws from its own RNG stream derived from (one u64 drawn from
/// `rng`, i), so the CI is bit-identical for every `ctx.num_threads`.
/// Throws std::invalid_argument on an empty sample.
[[nodiscard]] ConfidenceInterval percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x, rngx::Rng& rng,
    std::size_t num_resamples = 1000, double alpha = 0.05);

/// Bias-corrected and accelerated (BCa) bootstrap CI (Efron 1987) of the
/// mean of `x`. The percentile pair is adjusted by a bias correction z0
/// (from the fraction of resampled means below the observed one) and an
/// acceleration constant (from the jackknife skewness of the mean), making
/// the interval second-order accurate for skewed data where the plain
/// percentile interval is off-center.
///
/// Draws the same resamples as percentile_bootstrap_ci for the same `rng`
/// state (only the quantile levels differ) and has the same determinism
/// contract; the jackknife runs through kernels::jackknife_mean_loo
/// (exact below kernels::kJackknifeLinearThreshold, linear-time above it).
[[nodiscard]] ConfidenceInterval bca_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x, rngx::Rng& rng,
    std::size_t num_resamples = 1000, double alpha = 0.05);

/// Percentile-bootstrap CI of the P(A>B) win rate of *paired* samples
/// (a_i, b_i) — probability_of_outperforming on each resample. Pairs are
/// resampled together, preserving the pairing (Appendix C.5). Same
/// determinism contract as percentile_bootstrap_ci, on the stream tag
/// "paired_bootstrap". Throws std::invalid_argument on empty or unequal
/// samples.
[[nodiscard]] ConfidenceInterval paired_percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng,
    std::size_t num_resamples = 1000, double alpha = 0.05);

}  // namespace varbench::stats
