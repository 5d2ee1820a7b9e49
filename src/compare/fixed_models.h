// §6, "Comparing models instead of procedures": when the models are given
// and not retrainable (bought via API, competition submissions), the only
// source of variation left is the data used to test them. The comparison
// then bootstraps the TEST SET: P(A>B) across test-set resamples, with the
// per-example predictions fixed.
#pragma once

#include <span>
#include <vector>

#include "src/rngx/rng.h"
#include "src/stats/prob_outperform.h"

namespace varbench::compare {

/// Per-example correctness/score of one fixed model on a shared test set
/// (e.g. 1.0/0.0 per-example accuracy, or per-example loss negated).
using PerExampleScores = std::vector<double>;

struct FixedModelComparison {
  double mean_a = 0.0;           // test-set performance of A
  double mean_b = 0.0;
  double p_a_greater_b = 0.5;    // across test-set bootstrap resamples
  stats::ConfidenceInterval ci;  // CI of the mean difference A − B
  stats::ComparisonConclusion conclusion =
      stats::ComparisonConclusion::kNotSignificant;
};

/// Bootstrap the test examples (jointly for A and B — the models are
/// evaluated on the SAME resampled set) and measure how often A's mean
/// beats B's. Significant when the percentile CI of the mean difference
/// A − B lies above 0 (ci.lower > 0); meaningful when P(A>B) >= gamma.
[[nodiscard]] FixedModelComparison compare_fixed_models(
    std::span<const double> per_example_a, std::span<const double> per_example_b,
    rngx::Rng& rng, double gamma = stats::kDefaultGamma,
    std::size_t num_resamples = 1000, double alpha = 0.05);

}  // namespace varbench::compare
