// Descriptive statistics: means, variances, quantiles, correlations, ranks.
#pragma once

#include <span>
#include <vector>

namespace varbench::stats {

[[nodiscard]] double mean(std::span<const double> x);

/// Unbiased sample variance (divides by n-1). Returns 0 for n < 2.
[[nodiscard]] double variance(std::span<const double> x);

[[nodiscard]] double stddev(std::span<const double> x);

[[nodiscard]] double min_value(std::span<const double> x);
[[nodiscard]] double max_value(std::span<const double> x);

/// The descriptive block report tables need, computed in two contiguous
/// passes over the span instead of five independent traversals (the
/// summary hot path on large mmap'd columns). Bit-identical to calling
/// mean/variance/stddev/min_value/max_value separately: the same
/// left-to-right accumulation, the same Σ(v−m)² second pass, the same
/// n < 2 → 0 variance and first-occurrence min/max semantics.
struct Moments {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Throws std::invalid_argument on empty input, like the scalar functions.
[[nodiscard]] Moments moments(std::span<const double> x);

/// Linear-interpolation quantile (type 7, the numpy default). q in [0, 1].
[[nodiscard]] double quantile(std::span<const double> x, double q);

[[nodiscard]] double median(std::span<const double> x);

/// Unbiased sample covariance.
[[nodiscard]] double covariance(std::span<const double> x,
                                std::span<const double> y);

/// Pearson correlation coefficient. Returns 0 when either input is constant.
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y);

/// Mid-ranks (1-based, ties get the average rank) — the Mann–Whitney /
/// Wilcoxon building block.
[[nodiscard]] std::vector<double> ranks(std::span<const double> x);

/// Average pairwise Pearson correlation implied by the law of total variance:
/// given Var(mean of k draws) and Var(single draw), solves Eq. 7 for ρ.
[[nodiscard]] double implied_correlation(double var_of_mean, double var_single,
                                         std::size_t k);

}  // namespace varbench::stats
