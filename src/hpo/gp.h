// Gaussian-process regression with an RBF kernel — the surrogate model for
// Bayesian optimization (the paper used RoBO; we implement GP+EI directly).
#pragma once

#include <span>
#include <vector>

#include "src/math/matrix.h"

namespace varbench::hpo {

struct GpConfig {
  double length_scale = 0.2;  // RBF length scale on the unit cube
  double signal_variance = 1.0;
  double noise_variance = 1e-6;  // jitter added to the diagonal
};

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpConfig config = {});

  /// Fit on inputs X (n×d, unit cube) and targets y. Targets are centered
  /// and scaled internally. Increases the diagonal jitter automatically if
  /// the kernel matrix is not positive definite.
  void fit(const math::Matrix& x, std::span<const double> y);

  [[nodiscard]] bool fitted() const noexcept { return !alpha_.empty(); }
  [[nodiscard]] const GpConfig& config() const noexcept { return config_; }

  /// Posterior mean and variance at a single query point (in original target
  /// units).
  [[nodiscard]] GpPrediction predict(std::span<const double> x) const;

 private:
  [[nodiscard]] double kernel(std::span<const double> a,
                              std::span<const double> b) const;

  GpConfig config_;
  math::Matrix x_;             // training inputs
  std::vector<double> y_norm_; // centered/scaled targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;
  math::Matrix chol_;          // Cholesky factor of K + σ²I
  std::vector<double> alpha_;  // (K + σ²I)⁻¹ y_norm
};

}  // namespace varbench::hpo
