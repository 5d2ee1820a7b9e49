#include "src/stats/distributions.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace varbench::stats {

double normal_pdf(double x) {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    if (p == 0.0) return -std::numeric_limits<double>::infinity();
    if (p == 1.0) return std::numeric_limits<double>::infinity();
    throw std::invalid_argument("normal_quantile: p outside [0, 1]");
  }
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One step of Halley's method against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double log_gamma(double x) {
  // Lanczos approximation, g = 7, n = 9.
  static constexpr double coeffs[] = {
      0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
      771.32342877765313,   -176.61502916214059,   12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(std::numbers::pi / std::sin(std::numbers::pi * x)) -
           log_gamma(1.0 - x);
  }
  x -= 1.0;
  double a = coeffs[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += coeffs[i] / (x + i);
  return 0.5 * std::log(2.0 * std::numbers::pi) + (x + 0.5) * std::log(t) - t +
         std::log(a);
}

namespace {

// Continued-fraction evaluation of the incomplete beta (Lentz's method),
// valid for x < (a+1)/(a+b+2).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  if (!(a > 0.0 && b > 0.0)) {
    throw std::invalid_argument("incomplete_beta: a, b must be positive");
  }
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_cf(a, b, x) / a;
  }
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

double student_t_two_sided_p(double t, double nu) {
  const double x = nu / (nu + t * t);
  return incomplete_beta(nu / 2.0, 0.5, x);
}

double binomial_accuracy_std(double accuracy, double test_size) {
  if (!(test_size > 0.0)) {
    throw std::invalid_argument("binomial_accuracy_std: test_size <= 0");
  }
  if (!(accuracy >= 0.0 && accuracy <= 1.0)) {
    throw std::invalid_argument("binomial_accuracy_std: accuracy outside [0,1]");
  }
  return std::sqrt(accuracy * (1.0 - accuracy) / test_size);
}

double incomplete_gamma_p(double a, double x) {
  if (!(a > 0.0)) throw std::invalid_argument("incomplete_gamma_p: a <= 0");
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) {
    // Series expansion.
    double sum = 1.0 / a;
    double term = sum;
    double ap = a;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 3e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
  }
  // Continued fraction for Q(a, x), then P = 1 - Q.
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 3e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
  return 1.0 - q;
}

double chi_squared_cdf(double x, double k) {
  if (x <= 0.0) return 0.0;
  return incomplete_gamma_p(k / 2.0, x / 2.0);
}

}  // namespace varbench::stats
