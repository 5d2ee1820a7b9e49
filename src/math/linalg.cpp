#include "src/math/linalg.h"

#include <cmath>
#include <stdexcept>

namespace varbench::math {

std::optional<Matrix> cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  const std::size_t n = a.rows();
  Matrix l{n, n};
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

std::vector<double> solve_lower(const Matrix& l, std::span<const double> b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  return y;
}

std::vector<double> solve_lower_transposed(const Matrix& l,
                                           std::span<const double> y) {
  const std::size_t n = l.rows();
  if (y.size() != n) {
    throw std::invalid_argument("solve_lower_transposed: size mismatch");
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& l, std::span<const double> b) {
  return solve_lower_transposed(l, solve_lower(l, b));
}

}  // namespace varbench::math
