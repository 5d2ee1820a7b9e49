#include "src/hpo/gp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/math/linalg.h"
#include "src/stats/descriptive.h"

namespace varbench::hpo {

GaussianProcess::GaussianProcess(GpConfig config) : config_{config} {
  if (!(config_.length_scale > 0.0 && config_.signal_variance > 0.0 &&
        config_.noise_variance >= 0.0)) {
    throw std::invalid_argument("GaussianProcess: bad config");
  }
}

double GaussianProcess::kernel(std::span<const double> a,
                               std::span<const double> b) const {
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return config_.signal_variance *
         std::exp(-0.5 * sq / (config_.length_scale * config_.length_scale));
}

void GaussianProcess::fit(const math::Matrix& x, std::span<const double> y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit: bad inputs");
  }
  x_ = x;
  y_mean_ = stats::mean(y);
  y_scale_ = x.rows() > 1 ? stats::stddev(y) : 1.0;
  if (y_scale_ <= 0.0) y_scale_ = 1.0;
  y_norm_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y_norm_[i] = (y[i] - y_mean_) / y_scale_;
  }

  const std::size_t n = x.rows();
  math::Matrix k{n, n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = kernel(x.row(i), x.row(j));
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  // Escalate jitter until the factorization succeeds.
  double jitter = std::max(config_.noise_variance, 1e-10);
  for (int attempt = 0; attempt < 8; ++attempt) {
    math::Matrix kj = k;
    for (std::size_t i = 0; i < n; ++i) kj(i, i) += jitter;
    if (auto chol = math::cholesky(kj)) {
      chol_ = std::move(*chol);
      alpha_ = math::cholesky_solve(chol_, y_norm_);
      return;
    }
    jitter *= 10.0;
  }
  throw std::runtime_error("GaussianProcess::fit: kernel matrix not PD");
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("GaussianProcess::predict: not fitted");
  if (x.size() != x_.cols()) {
    throw std::invalid_argument("GaussianProcess::predict: dim mismatch");
  }
  const std::size_t n = x_.rows();
  std::vector<double> kstar(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = kernel(x, x_.row(i));
  const double mean_norm = math::dot(kstar, alpha_);
  const auto v = math::solve_lower(chol_, kstar);
  const double var_norm =
      std::max(0.0, kernel(x, x) - math::dot(v, v));
  return {mean_norm * y_scale_ + y_mean_, var_norm * y_scale_ * y_scale_};
}

}  // namespace varbench::hpo
