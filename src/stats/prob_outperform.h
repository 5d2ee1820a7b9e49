// The paper's recommended decision criterion (§4.1, Appendix C):
// probability of outperforming P(A>B), its percentile-bootstrap confidence
// interval, and the significant-and-meaningful three-zone decision.
#pragma once

#include <span>
#include <string_view>

#include "src/rngx/rng.h"
#include "src/stats/bootstrap.h"

namespace varbench::stats {

/// Community-standard threshold γ recommended by the paper (§5).
inline constexpr double kDefaultGamma = 0.75;

/// Empirical P(A>B) = (1/k)·Σ 1{a_i > b_i} over paired measurements (Eq. 9).
/// Ties count as half a success, matching the Mann–Whitney convention.
[[nodiscard]] double probability_of_outperforming(std::span<const double> a,
                                                  std::span<const double> b);

enum class ComparisonConclusion : int {
  kNotSignificant,    // H0 not rejected: CI_min <= 0.5 — could be noise alone
  kNotMeaningful,     // significant but CI_max <= gamma — too small to matter
  kSignificantAndMeaningful,  // H1 accepted: CI_min > 0.5 and CI_max > gamma
};

[[nodiscard]] std::string_view to_string(ComparisonConclusion c);

struct ProbOutperformResult {
  double p_a_greater_b = 0.5;
  ConfidenceInterval ci;
  double gamma = kDefaultGamma;
  ComparisonConclusion conclusion = ComparisonConclusion::kNotSignificant;

  [[nodiscard]] bool significant() const { return ci.lower > 0.5; }
  [[nodiscard]] bool meaningful() const { return ci.upper > gamma; }
};

/// Full recommended test: estimate P(A>B) on paired performance
/// measurements, bootstrap its CI (paired_percentile_bootstrap_ci), and
/// decide per Appendix C.6. The bootstrap resampling loop fans out through
/// `ctx`; the result is bit-identical for every `ctx.num_threads`.
[[nodiscard]] ProbOutperformResult test_probability_of_outperforming(
    const exec::ExecContext& ctx, std::span<const double> a,
    std::span<const double> b, rngx::Rng& rng, double gamma = kDefaultGamma,
    std::size_t num_resamples = 1000, double alpha = 0.05);

}  // namespace varbench::stats
