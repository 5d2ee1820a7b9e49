#include "src/compare/criteria.h"

#include <cmath>
#include <stdexcept>

#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"

namespace varbench::compare {

bool SinglePointComparison::detects(std::span<const double> a,
                                    std::span<const double> b,
                                    rngx::Rng& rng) const {
  (void)rng;
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("SinglePointComparison: empty input");
  }
  return a[0] - b[0] > delta_;
}

bool AverageComparison::detects(std::span<const double> a,
                                std::span<const double> b,
                                rngx::Rng& rng) const {
  (void)rng;
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("AverageComparison: empty input");
  }
  return stats::mean(a) - stats::mean(b) > delta_;
}

bool ProbOutperformCriterion::detects(std::span<const double> a,
                                      std::span<const double> b,
                                      rngx::Rng& rng) const {
  const auto result = stats::test_probability_of_outperforming(
      exec::ExecContext{}, a, b, rng, gamma_, resamples_, alpha_);
  return result.conclusion ==
         stats::ComparisonConclusion::kSignificantAndMeaningful;
}

bool OracleComparison::detects(std::span<const double> a,
                               std::span<const double> b,
                               rngx::Rng& rng) const {
  (void)rng;
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("OracleComparison: bad inputs");
  }
  // One-sided z-test on the mean of paired differences with known variance
  // 2σ² per difference.
  const auto k = static_cast<double>(a.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += a[i] - b[i];
  diff /= k;
  const double se = std::sqrt(2.0 * sigma_ * sigma_ / k);
  if (se == 0.0) return diff > 0.0;
  return diff / se > stats::normal_quantile(1.0 - alpha_);
}

}  // namespace varbench::compare
