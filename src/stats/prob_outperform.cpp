#include "src/stats/prob_outperform.h"

#include <stdexcept>

namespace varbench::stats {

double probability_of_outperforming(std::span<const double> a,
                                    std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("probability_of_outperforming: bad inputs");
  }
  double wins = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) {
      wins += 1.0;
    } else if (a[i] == b[i]) {
      wins += 0.5;
    }
  }
  return wins / static_cast<double>(a.size());
}

std::string_view to_string(ComparisonConclusion c) {
  switch (c) {
    case ComparisonConclusion::kNotSignificant:
      return "not significant";
    case ComparisonConclusion::kNotMeaningful:
      return "significant but not meaningful";
    case ComparisonConclusion::kSignificantAndMeaningful:
      return "significant and meaningful";
  }
  return "unknown";
}

ProbOutperformResult test_probability_of_outperforming(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng, double gamma,
    std::size_t num_resamples, double alpha) {
  ProbOutperformResult result;
  result.gamma = gamma;
  result.p_a_greater_b = probability_of_outperforming(a, b);
  result.ci =
      paired_percentile_bootstrap_ci(ctx, a, b, rng, num_resamples, alpha);
  if (!result.significant()) {
    result.conclusion = ComparisonConclusion::kNotSignificant;
  } else if (!result.meaningful()) {
    result.conclusion = ComparisonConclusion::kNotMeaningful;
  } else {
    result.conclusion = ComparisonConclusion::kSignificantAndMeaningful;
  }
  return result;
}

}  // namespace varbench::stats
