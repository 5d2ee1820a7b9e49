#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace varbench::stats {

double mean(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("mean: empty input");
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("variance: empty input");
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (const double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double min_value(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("min_value: empty input");
  return *std::min_element(x.begin(), x.end());
}

double max_value(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("max_value: empty input");
  return *std::max_element(x.begin(), x.end());
}

Moments moments(std::span<const double> x) {
  if (x.empty()) throw std::invalid_argument("moments: empty input");
  double sum = 0.0;
  double mn = x[0];
  double mx = x[0];
  for (const double v : x) {
    sum += v;
    if (v < mn) mn = v;
    if (mx < v) mx = v;
  }
  Moments m;
  m.count = x.size();
  m.mean = sum / static_cast<double>(x.size());
  if (x.size() >= 2) {
    double s = 0.0;
    for (const double v : x) s += (v - m.mean) * (v - m.mean);
    m.variance = s / static_cast<double>(x.size() - 1);
  }
  m.stddev = std::sqrt(m.variance);
  m.min = mn;
  m.max = mx;
  return m;
}

double quantile(std::span<const double> x, double q) {
  if (x.empty()) throw std::invalid_argument("quantile: empty input");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0, 1]");
  }
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> x) { return quantile(x, 0.5); }

double covariance(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("covariance: size mismatch");
  }
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += (x[i] - mx) * (y[i] - my);
  return s / static_cast<double>(x.size() - 1);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  const double sx = stddev(x);
  const double sy = stddev(y);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return covariance(x, y) / (sx * sy);
}

std::vector<double> ranks(std::span<const double> x) {
  const std::size_t n = x.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  std::vector<double> r(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && x[order[j + 1]] == x[order[i]]) ++j;
    // Tied block [i, j]: everyone gets the average 1-based rank.
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg_rank;
    i = j + 1;
  }
  return r;
}

double implied_correlation(double var_of_mean, double var_single,
                           std::size_t k) {
  // Eq. 7: Var(mean_k) = V/k + (k-1)/k · ρ · V  ⇒  ρ = (k·Var(mean_k)/V − 1)/(k−1)
  if (k < 2 || var_single <= 0.0) return 0.0;
  const auto kd = static_cast<double>(k);
  const double rho = (kd * var_of_mean / var_single - 1.0) / (kd - 1.0);
  return std::clamp(rho, -1.0, 1.0);
}

}  // namespace varbench::stats
