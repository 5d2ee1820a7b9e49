#include "src/stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "src/exec/parallel_replicate.h"
#include "src/exec/scratch.h"
#include "src/metrics/metrics.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/resample_kernels.h"

namespace varbench::stats {

namespace {

/// The BCa interval from the resampled statistics, the observed value, and
/// the jackknife leave-one-out values. Shared by the std::function and the
/// fused-kernel overloads so both adjust quantiles with the same bits.
ConfidenceInterval bca_interval(const std::vector<double>& stats,
                                double observed, std::span<const double> loo,
                                double alpha) {
  // Bias correction z0: normal quantile of the fraction of resamples below
  // the observed statistic (ties split), clamped half a resample away from
  // 0 and 1 so a one-sided bootstrap distribution degrades to the edge of
  // the percentile interval instead of an infinite z0.
  double below = 0.0;
  for (const double s : stats) {
    if (s < observed) {
      below += 1.0;
    } else if (s == observed) {
      below += 0.5;
    }
  }
  const double total = static_cast<double>(stats.size());
  const double frac =
      std::clamp(below / total, 0.5 / total, 1.0 - 0.5 / total);
  const double z0 = normal_quantile(frac);

  // Acceleration from the jackknife skewness of the statistic.
  double accel = 0.0;
  if (loo.size() >= 2) {
    const double loo_mean = mean(loo);
    double num = 0.0;
    double den = 0.0;
    for (const double v : loo) {
      const double d = loo_mean - v;
      num += d * d * d;
      den += d * d;
    }
    if (den > 0.0) accel = num / (6.0 * std::pow(den, 1.5));
  }

  const auto adjusted_level = [&](double z_alpha) {
    const double zsum = z0 + z_alpha;
    const double denom = 1.0 - accel * zsum;
    // A denominator this small means the jackknife found pathological
    // skew; fall back to the bias-corrected-only level rather than let the
    // adjustment flip the interval.
    const double z = denom > 1e-6 ? z0 + zsum / denom : z0 + zsum;
    return normal_cdf(z);
  };
  const double lo = adjusted_level(normal_quantile(alpha / 2.0));
  const double hi = adjusted_level(normal_quantile(1.0 - alpha / 2.0));
  return ConfidenceInterval{quantile(stats, std::min(lo, hi)),
                            quantile(stats, std::max(lo, hi)), 1.0 - alpha};
}

/// Resampled statistics for the generic std::function path: same streams
/// and tag as ever, but the resample is gathered into leased per-thread
/// scratch instead of a fresh vector. The statistic sees the same values
/// in the same order, so results are bit-identical.
std::vector<double> resample_generic(
    const exec::ExecContext& ctx, std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples) {
  metrics::Sink& sink = ctx.sink();
  const std::size_t n = x.size();
  return exec::parallel_replicate<double>(
      ctx, num_resamples, rng, "bootstrap",
      [&](std::size_t, rngx::Rng& resample_rng) {
        sink.add(metrics::kStatsResamples);
        exec::ScratchBuffer<double> resample{n};
        if (n <= std::numeric_limits<std::uint32_t>::max()) {
          exec::ScratchBuffer<std::uint32_t> idx{n};
          kernels::fill_bootstrap_indices(resample_rng, n, idx.span());
          kernels::gather_values(x, std::span<const std::uint32_t>{idx.span()},
                                 resample.span());
        } else {
          exec::ScratchBuffer<std::uint64_t> idx{n};
          kernels::fill_bootstrap_indices(resample_rng, n, idx.span());
          kernels::gather_values(x, std::span<const std::uint64_t>{idx.span()},
                                 resample.span());
        }
        return statistic(resample.span());
      });
}

}  // namespace

ConfidenceInterval percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  if (x.empty()) throw std::invalid_argument("percentile_bootstrap_ci: empty");
  const auto stats = resample_generic(ctx, x, statistic, rng, num_resamples);
  return ConfidenceInterval{quantile(stats, alpha / 2.0),
                            quantile(stats, 1.0 - alpha / 2.0), 1.0 - alpha};
}

ConfidenceInterval percentile_bootstrap_ci(
    std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  return percentile_bootstrap_ci(exec::ExecContext::serial(), x, statistic,
                                 rng, num_resamples, alpha);
}

ConfidenceInterval percentile_bootstrap_ci(const exec::ExecContext& ctx,
                                           std::span<const double> x,
                                           ResampleStat stat, rngx::Rng& rng,
                                           std::size_t num_resamples,
                                           double alpha) {
  if (x.empty()) throw std::invalid_argument("percentile_bootstrap_ci: empty");
  (void)stat;  // kMean is the only fused statistic so far
  const auto stats =
      kernels::resample_mean_statistics(ctx, x, rng, num_resamples);
  return ConfidenceInterval{quantile(stats, alpha / 2.0),
                            quantile(stats, 1.0 - alpha / 2.0), 1.0 - alpha};
}

ConfidenceInterval bca_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  if (x.empty()) throw std::invalid_argument("bca_bootstrap_ci: empty sample");
  const double observed = statistic(x);
  // Same tag as percentile_bootstrap_ci: for the same rng state the two
  // methods evaluate the statistic on identical resamples and differ only
  // in which quantiles of that distribution they report.
  const auto stats = resample_generic(ctx, x, statistic, rng, num_resamples);

  // Generic-statistic jackknife: the leave-one-out sample is assembled in
  // leased scratch (no per-i allocation); the statistic sees the same
  // values the historical fresh-vector path produced.
  const std::size_t n = x.size();
  std::vector<double> loo;
  if (n >= 2) {
    loo.resize(n);
    exec::parallel_for(ctx, 0, n, [&](std::size_t i) {
      exec::ScratchBuffer<double> rest{n - 1};
      const std::span<double> r = rest.span();
      for (std::size_t j = 0; j < i; ++j) r[j] = x[j];
      for (std::size_t j = i + 1; j < n; ++j) r[j - 1] = x[j];
      loo[i] = statistic(r);
    });
  }
  return bca_interval(stats, observed, loo, alpha);
}

ConfidenceInterval bca_bootstrap_ci(
    std::span<const double> x,
    const std::function<double(std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  return bca_bootstrap_ci(exec::ExecContext::serial(), x, statistic, rng,
                          num_resamples, alpha);
}

ConfidenceInterval bca_bootstrap_ci(const exec::ExecContext& ctx,
                                    std::span<const double> x,
                                    ResampleStat stat, rngx::Rng& rng,
                                    std::size_t num_resamples, double alpha) {
  if (x.empty()) throw std::invalid_argument("bca_bootstrap_ci: empty sample");
  (void)stat;  // kMean is the only fused statistic so far
  const double observed = mean(x);
  const auto stats =
      kernels::resample_mean_statistics(ctx, x, rng, num_resamples);
  const std::size_t n = x.size();
  std::vector<double> loo;
  if (n >= 2) {
    loo.resize(n);
    kernels::jackknife_mean_loo(ctx, x, loo);
  }
  return bca_interval(stats, observed, loo, alpha);
}

ConfidenceInterval paired_percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("paired_percentile_bootstrap_ci: bad inputs");
  }
  metrics::Sink& sink = ctx.sink();
  const std::size_t n = a.size();
  const auto stats = exec::parallel_replicate<double>(
      ctx, num_resamples, rng, "paired_bootstrap",
      [&](std::size_t, rngx::Rng& resample_rng) {
        sink.add(metrics::kStatsResamples);
        // Leased per-thread buffers: re-entrant (the statistic may
        // bootstrap too — a nested lease gets its own buffer) without the
        // historical per-resample allocation.
        exec::ScratchBuffer<double> ra{n};
        exec::ScratchBuffer<double> rb{n};
        for (std::size_t j = 0; j < n; ++j) {
          const auto idx =
              static_cast<std::size_t>(resample_rng.uniform_index(n));
          ra.span()[j] = a[idx];
          rb.span()[j] = b[idx];
        }
        return statistic(ra.span(), rb.span());
      });
  return ConfidenceInterval{quantile(stats, alpha / 2.0),
                            quantile(stats, 1.0 - alpha / 2.0), 1.0 - alpha};
}

ConfidenceInterval paired_percentile_bootstrap_ci(
    std::span<const double> a, std::span<const double> b,
    const std::function<double(std::span<const double>,
                               std::span<const double>)>& statistic,
    rngx::Rng& rng, std::size_t num_resamples, double alpha) {
  return paired_percentile_bootstrap_ci(exec::ExecContext::serial(), a, b,
                                        statistic, rng, num_resamples, alpha);
}

ConfidenceInterval paired_percentile_bootstrap_ci(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, PairedResampleStat stat, rngx::Rng& rng,
    std::size_t num_resamples, double alpha) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("paired_percentile_bootstrap_ci: bad inputs");
  }
  (void)stat;  // kWinRate is the only fused paired statistic so far
  const auto stats =
      kernels::resample_win_rate_statistics(ctx, a, b, rng, num_resamples);
  return ConfidenceInterval{quantile(stats, alpha / 2.0),
                            quantile(stats, 1.0 - alpha / 2.0), 1.0 - alpha};
}

}  // namespace varbench::stats
