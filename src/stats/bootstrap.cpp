#include "src/stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/resample_kernels.h"

namespace varbench::stats {

namespace {

/// The (α/2, 1−α/2) percentile pair of the resampled statistics.
ConfidenceInterval percentile_interval(const std::vector<double>& stats,
                                       double alpha) {
  return ConfidenceInterval{quantile(stats, alpha / 2.0),
                            quantile(stats, 1.0 - alpha / 2.0), 1.0 - alpha};
}

/// The BCa interval from the resampled statistics, the observed value, and
/// the jackknife leave-one-out values.
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

}  // namespace

ConfidenceInterval percentile_bootstrap_ci(const exec::ExecContext& ctx,
                                           std::span<const double> x,
                                           rngx::Rng& rng,
                                           std::size_t num_resamples,
                                           double alpha) {
  if (x.empty()) throw std::invalid_argument("percentile_bootstrap_ci: empty");
  return percentile_interval(
      kernels::resample_mean_statistics(ctx, x, rng, num_resamples), alpha);
}

ConfidenceInterval bca_bootstrap_ci(const exec::ExecContext& ctx,
                                    std::span<const double> x, rngx::Rng& rng,
                                    std::size_t num_resamples, double alpha) {
  if (x.empty()) throw std::invalid_argument("bca_bootstrap_ci: empty sample");
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
    std::span<const double> b, rngx::Rng& rng, std::size_t num_resamples,
    double alpha) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("paired_percentile_bootstrap_ci: bad inputs");
  }
  return percentile_interval(
      kernels::resample_win_rate_statistics(ctx, a, b, rng, num_resamples),
      alpha);
}

}  // namespace varbench::stats
