// Detection-rate characterization of comparison criteria (Fig. 6, Fig. I.6):
// sweep the true P(A>B), simulate estimator realizations, and measure how
// often each criterion concludes "A outperforms B".
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/compare/criteria.h"
#include "src/compare/simulation.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_replicate.h"

namespace varbench::compare {

struct DetectionRateConfig {
  std::size_t k = 50;             // measurements per algorithm per simulation
  std::size_t simulations = 100;  // simulation rounds per grid point
  std::vector<double> p_grid;     // true P(A>B) values; empty → 0.4..1.0
  // Each (grid point, simulation round) pair runs on its own RNG stream;
  // the outcomes are bit-identical for every num_threads.
  exec::ExecContext exec;
};

/// The default Fig. 6 x-axis: true P(A>B) from 0.4 to 1.0 in steps of 0.05,
/// plus 0.99 to probe near-certain improvements.
[[nodiscard]] std::vector<double> default_p_grid();

/// Raw detection outcomes, one row per simulation round. Round index
/// `gi * simulations + si` simulates grid point `gi`, round `si`; the value
/// is one 0/1 flag per criterion (same order as `criteria`). `range`
/// restricts execution to a contiguous slice of the round index space —
/// rounds are keyed by their global index, so any slice is bit-identical to
/// the corresponding slice of the full run (shard execution). Exactly one
/// u64 is drawn from `rng` regardless of range and thread count.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> detection_rounds(
    const TaskVarianceProfile& profile, EstimatorKind estimator,
    std::span<const std::unique_ptr<ComparisonCriterion>> criteria,
    const DetectionRateConfig& config, exec::IndexRange range, rngx::Rng& rng);

/// The three x-axis regions of Fig. 6 for a true probability p.
enum class TruthRegion : int { kH0, kIntermediate, kH1 };
[[nodiscard]] TruthRegion classify_region(double p, double gamma);

/// δ calibrated to published improvements: δ = coeff·σ with the paper's
/// regression coefficient 1.9952 (§4.2).
inline constexpr double kPublishedImprovementCoeff = 1.9952;
[[nodiscard]] double published_improvement_delta(double sigma);

}  // namespace varbench::compare
