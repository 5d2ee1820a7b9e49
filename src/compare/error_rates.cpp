#include "src/compare/error_rates.h"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/exec/parallel_replicate.h"

namespace varbench::compare {

std::vector<double> default_p_grid() {
  std::vector<double> grid;
  for (double p = 0.4; p <= 1.0 - 1e-9; p += 0.05) grid.push_back(p);
  grid.push_back(0.99);  // probe near-certain improvements too
  return grid;
}

std::vector<std::vector<std::uint8_t>> detection_rounds(
    const TaskVarianceProfile& profile, EstimatorKind estimator,
    std::span<const std::unique_ptr<ComparisonCriterion>> criteria,
    const DetectionRateConfig& config, exec::IndexRange range,
    rngx::Rng& rng) {
  if (criteria.empty()) {
    throw std::invalid_argument("detection_rounds: no criteria");
  }
  const std::vector<double> p_grid =
      config.p_grid.empty() ? default_p_grid() : config.p_grid;
  const std::size_t rounds = p_grid.size() * config.simulations;
  if (range.begin > range.end || range.end > rounds) {
    throw std::invalid_argument("detection_rounds: range outside [0, " +
                                std::to_string(rounds) + ")");
  }

  const double sigma_single = estimator == EstimatorKind::kIdeal
                                  ? profile.sigma_ideal
                                  : profile.sigma_biased_total();
  std::vector<double> offsets(p_grid.size(), 0.0);
  for (std::size_t gi = 0; gi < p_grid.size(); ++gi) {
    offsets[gi] = mean_offset_for_probability(p_grid[gi], sigma_single);
  }

  // One task per (grid point, simulation round) pair, each on its own RNG
  // stream; every criterion sees the same simulated samples within a round.
  return exec::parallel_replicate_range<std::vector<std::uint8_t>>(
      config.exec, range, rng.next_u64(), "detection_rates",
      [&](std::size_t round, rngx::Rng& round_rng) {
        const std::size_t gi = round / config.simulations;
        const auto a = simulate_measures(profile, estimator, offsets[gi],
                                         config.k, round_rng);
        const auto b =
            simulate_measures(profile, estimator, 0.0, config.k, round_rng);
        std::vector<std::uint8_t> detected(criteria.size(), 0);
        for (std::size_t ci = 0; ci < criteria.size(); ++ci) {
          detected[ci] = criteria[ci]->detects(a, b, round_rng) ? 1 : 0;
        }
        return detected;
      });
}

TruthRegion classify_region(double p, double gamma) {
  if (p <= 0.5) return TruthRegion::kH0;
  if (p <= gamma) return TruthRegion::kIntermediate;
  return TruthRegion::kH1;
}

double published_improvement_delta(double sigma) {
  return kPublishedImprovementCoeff * sigma;
}

}  // namespace varbench::compare
