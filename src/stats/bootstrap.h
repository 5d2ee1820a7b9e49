// Percentile bootstrap (Efron 1982) — the paper's recommended tool for
// confidence intervals on P(A>B) (Appendix C.5), plus generic resampling.
#pragma once

#include <functional>
#include <span>
#include <vector>

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

/// Fused single-sample statistics the CI machinery evaluates without
/// materializing resamples (src/stats/resample_kernels.h). Prefer these
/// overloads over the std::function ones on hot paths: same bits, no
/// per-resample allocation, no indirect call in the inner loop.
enum class ResampleStat {
  kMean,
};

/// Fused paired-sample statistics, same contract as ResampleStat.
enum class PairedResampleStat {
  kWinRate,  // P(A>B) with ties counted half (probability_of_outperforming)
};

/// Percentile-bootstrap CI of an arbitrary statistic of one sample.
/// `statistic` is evaluated on `num_resamples` bootstrap resamples; the CI is
/// the (α/2, 1−α/2) percentile pair of those evaluations.
///
/// Resample i draws from its own RNG stream derived from (one u64 drawn from
/// `rng`, i), so the CI is bit-identical for every `ctx.num_threads`; the
/// ctx-less overload is the serial special case of the same computation.
[[nodiscard]] ConfidenceInterval percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);
[[nodiscard]] ConfidenceInterval percentile_bootstrap_ci(
    std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);

/// Fused-kernel percentile CI: bit-identical to the std::function overload
/// evaluating the equivalent statistic, with the resampling loop running
/// allocation-free on the index kernels.
[[nodiscard]] ConfidenceInterval percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x, ResampleStat stat,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);

/// Bias-corrected and accelerated (BCa) bootstrap CI (Efron 1987) of an
/// arbitrary statistic of one sample. The percentile pair is adjusted by a
/// bias correction z0 (from the fraction of resampled statistics below the
/// observed one) and an acceleration constant (from the jackknife skewness
/// of the statistic), making the interval second-order accurate for skewed
/// statistics where the plain percentile interval is off-center.
///
/// Draws the same resamples as percentile_bootstrap_ci for the same `rng`
/// state (only the quantile levels differ) and has the same determinism
/// contract: bit-identical for every `ctx.num_threads`; both the resampling
/// loop and the jackknife fan out through `ctx`.
[[nodiscard]] ConfidenceInterval bca_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);
[[nodiscard]] ConfidenceInterval bca_bootstrap_ci(
    std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);

/// Fused-kernel BCa CI: same resamples and stream consumption as the
/// std::function overload; the jackknife runs through
/// kernels::jackknife_mean_loo (bit-identical below
/// kernels::kJackknifeLinearThreshold, linear-time above it).
[[nodiscard]] ConfidenceInterval bca_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x, ResampleStat stat,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);

/// Percentile-bootstrap CI of a statistic of *paired* samples (a_i, b_i):
/// pairs are resampled together, preserving the pairing (Appendix C.5).
/// Same determinism contract as percentile_bootstrap_ci.
[[nodiscard]] ConfidenceInterval paired_percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);
[[nodiscard]] ConfidenceInterval paired_percentile_bootstrap_ci(
    std::span<const double> a, std::span<const double> b,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples = 1000, double alpha = 0.05);

/// Fused-kernel paired percentile CI (tag "paired_bootstrap"): bit-
/// identical to the std::function overload evaluating the equivalent
/// paired statistic, allocation-free in steady state.
[[nodiscard]] ConfidenceInterval paired_percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, PairedResampleStat stat, rngx::Rng& rng,
    std::size_t num_resamples = 1000, double alpha = 0.05);

}  // namespace varbench::stats
