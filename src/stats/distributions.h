// Probability distributions used throughout the statistical toolkit.
// Implemented from scratch (no dependency on libstdc++ distribution
// internals) so results are bit-stable across platforms.
#pragma once

namespace varbench::stats {

/// Standard normal probability density φ(x).
[[nodiscard]] double normal_pdf(double x);

/// Standard normal CDF Φ(x), via erfc for accuracy in the tails.
[[nodiscard]] double normal_cdf(double x);

/// Inverse standard normal CDF Φ⁻¹(p) (Acklam's rational approximation with
/// one Halley refinement; |relative error| < 1e-15 over (0,1)).
[[nodiscard]] double normal_quantile(double p);

/// Two-sided p-value for a t statistic with ν degrees of freedom.
[[nodiscard]] double student_t_two_sided_p(double t, double nu);

/// Regularized incomplete beta function I_x(a, b).
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// log Γ(x) (Lanczos approximation).
[[nodiscard]] double log_gamma(double x);

/// Standard deviation of the *proportion* X/n for X ~ Binomial(n, p):
/// sqrt(p(1-p)/n). This is the paper's Fig. 2 model of test-set sampling
/// noise on an accuracy measured over n examples.
[[nodiscard]] double binomial_accuracy_std(double accuracy, double test_size);

/// Chi-squared CDF with k degrees of freedom (via incomplete gamma).
[[nodiscard]] double chi_squared_cdf(double x, double k);

/// Regularized lower incomplete gamma P(a, x).
[[nodiscard]] double incomplete_gamma_p(double a, double x);

}  // namespace varbench::stats
