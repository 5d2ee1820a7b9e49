// Calibration constants: the paper's measured variance statistics per case
// study (digitized from Figures 1, 2, 5, H.4) and the published-SOTA series
// used by Fig. 3. These drive the §4.2 surrogate simulations so that the
// decision-criteria experiments run in CPU-minutes, exactly as the paper
// itself simulated them from measured (µ, σ, ρ).
#pragma once

#include <string>
#include <vector>

#include "src/compare/simulation.h"
#include "src/core/estimators.h"

namespace varbench::casestudies {

/// Per-task variance calibration. Standard deviations are in metric units
/// (fractions, not percent). Correlations ρ are the average pairwise
/// correlation among biased-estimator measurements (Eq. 7) when the given
/// subset of ξO is randomized.
struct TaskCalibration {
  std::string id;          // matches registry ids
  std::string paper_task;  // display label
  std::string metric;      // "accuracy" | "mean_iou" | "auc"
  double mu = 0.0;          // typical performance level
  double sigma_ideal = 0.0; // std of R̂e under the ideal estimator
  double rho_init = 0.0;    // ρ when randomizing weight init only
  double rho_data = 0.0;    // ρ when randomizing data splits only
  double rho_all = 0.0;     // ρ when randomizing all ξO sources
  std::size_t paper_test_size = 0;

  [[nodiscard]] double rho_for(core::RandomizeSubset subset) const;

  /// Two-stage simulation profile for a given randomization subset:
  /// σ_bias = √ρ·σ, σ_within = √(1−ρ)·σ (so single-measure variance matches
  /// the ideal estimator and the pairwise correlation matches ρ).
  [[nodiscard]] compare::TaskVarianceProfile profile(
      core::RandomizeSubset subset) const;

  /// Ideal-estimator profile (no bias term).
  [[nodiscard]] compare::TaskVarianceProfile ideal_profile() const;
};

/// Calibrations for the five case studies, digitized from the paper.
[[nodiscard]] const std::vector<TaskCalibration>& paper_calibrations();

[[nodiscard]] const TaskCalibration& calibration_for(const std::string& id);

/// One published state-of-the-art result (Fig. 3's dots).
struct SotaPoint {
  int year = 0;
  double accuracy = 0.0;  // fraction in [0, 1]
};

struct SotaSeries {
  std::string task;               // "cifar10" | "sst2"
  std::vector<SotaPoint> points;  // chronological
  double benchmark_sigma = 0.0;   // the paper's measured benchmark σ
};

/// Digitized paperswithcode.com SOTA progressions used in Fig. 3.
[[nodiscard]] const std::vector<SotaSeries>& sota_series();

}  // namespace varbench::casestudies
