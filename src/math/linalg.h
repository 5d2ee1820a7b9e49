// Direct solvers needed by the Gaussian-process substrate: Cholesky
// factorization of SPD matrices and triangular solves.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/math/matrix.h"

namespace varbench::math {

/// Lower-triangular Cholesky factor L with A = L·Lᵀ.
/// Returns std::nullopt if A is not (numerically) positive definite.
[[nodiscard]] std::optional<Matrix> cholesky(const Matrix& a);

/// Solve L·y = b for lower-triangular L (forward substitution).
[[nodiscard]] std::vector<double> solve_lower(const Matrix& l,
                                              std::span<const double> b);

/// Solve Lᵀ·x = y for lower-triangular L (backward substitution).
[[nodiscard]] std::vector<double> solve_lower_transposed(
    const Matrix& l, std::span<const double> y);

/// Solve A·x = b given the Cholesky factor L of A.
[[nodiscard]] std::vector<double> cholesky_solve(const Matrix& l,
                                                 std::span<const double> b);

}  // namespace varbench::math
