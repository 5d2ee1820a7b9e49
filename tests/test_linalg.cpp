#include "src/math/linalg.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/rngx/rng.h"

namespace varbench::math {
namespace {

Matrix random_spd(std::size_t n, rngx::Rng& rng) {
  Matrix a{n, n};
  for (double& v : a.data()) v = rng.normal();
  Matrix spd = matmul_nt(a, a);  // A·Aᵀ is PSD
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;  // make it PD
  return spd;
}

TEST(Cholesky, ReconstructsMatrix) {
  rngx::Rng rng{7};
  const Matrix a = random_spd(6, rng);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  const Matrix recon = matmul_nt(*l, *l);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(recon(i, j), a(i, j), 1e-9);
    }
  }
}

TEST(Cholesky, FactorIsLowerTriangular) {
  rngx::Rng rng{8};
  const auto l = cholesky(random_spd(5, rng));
  ASSERT_TRUE(l.has_value());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ((*l)(i, j), 0.0);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(cholesky(Matrix{2, 3}), std::invalid_argument);
}

TEST(CholeskySolve, SolvesSystem) {
  rngx::Rng rng{9};
  const Matrix a = random_spd(8, rng);
  std::vector<double> x_true(8);
  for (double& v : x_true) v = rng.normal();
  const auto b = matvec(a, x_true);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  const auto x = cholesky_solve(*l, b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(SolveLower, ForwardSubstitution) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  const std::vector<double> b{4.0, 11.0};
  const auto y = solve_lower(l, b);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(SolveLowerTransposed, BackwardSubstitution) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  // Lᵀ = [[2,1],[0,3]]; Lᵀx = [5, 9] → x = [1.5, 3] → wait: x2=3, 2x1+3=5 → x1=1
  const std::vector<double> y{5.0, 9.0};
  const auto x = solve_lower_transposed(l, y);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

}  // namespace
}  // namespace varbench::math
