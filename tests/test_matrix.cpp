#include "src/math/matrix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/math/gemm.h"
#include "src/rngx/rng.h"

namespace varbench::math {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  const Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, FillConstructor) {
  const Matrix m{2, 3, 1.5};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerListThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, DataVectorSizeMismatchThrows) {
  EXPECT_THROW((Matrix{2, 2, std::vector<double>{1.0, 2.0, 3.0}}),
               std::invalid_argument);
}

TEST(Matrix, AdditionSubtraction) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{10.0, 20.0}, {30.0, 40.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a{2, 2};
  const Matrix b{2, 3};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Matrix, ScalarMultiply) {
  const Matrix a{{1.0, -2.0}};
  const Matrix twice = 2.0 * a;
  EXPECT_DOUBLE_EQ(twice(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(twice(0, 1), -4.0);
}

TEST(Matrix, Transposed) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, TransposeTwiceIsIdentity) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(Matrix, Matmul) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  const Matrix a{2, 3};
  const Matrix b{2, 3};
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matrix, MatmulWithIdentity) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(matmul(a, identity(2)), a);
  EXPECT_EQ(matmul(identity(2), a), a);
}

TEST(Matrix, MatmulNtMatchesExplicitTranspose) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix b{{7.0, 8.0, 9.0}, {1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(matmul_nt(a, b), matmul(a, b.transposed()));
}

TEST(Matrix, MatmulTnMatchesExplicitTranspose) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix b{{7.0, 8.0, 9.0}, {1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(matmul_tn(a, b), matmul(a.transposed(), b));
}

TEST(Matrix, OutParameterProductsResizeAndOverwrite) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix out{5, 7, 9.0};  // larger and stale: resized, every element written
  matmul(a, b, out);
  EXPECT_EQ(out, matmul(a, b));
  matmul_nt(a, b, out);
  EXPECT_EQ(out, matmul_nt(a, b));
  matmul_tn(a, b, out);
  EXPECT_EQ(out, matmul_tn(a, b));
  matmul(Matrix{2, 0}, Matrix{0, 3}, out);  // k = 0: every sum is +0.0
  EXPECT_EQ(out, (Matrix{2, 3}));
}

TEST(Matrix, OutParameterMayNotAliasAnOperand) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = a;
  EXPECT_THROW(matmul(a, b, a), std::invalid_argument);
  EXPECT_THROW(matmul_nt(b, a, a), std::invalid_argument);
  EXPECT_THROW(matmul_tn(a, a, a), std::invalid_argument);
}

TEST(Matrix, Matvec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> x{1.0, 1.0};
  const auto y = matvec(a, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, SquaredNorm) {
  const Matrix a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.squared_norm(), 25.0);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix a{2, 2};
  auto row = a.row(1);
  row[0] = 42.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 42.0);
}

TEST(Matrix, Dot) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

// ------------------------------------------------------------ GEMM kernel
//
// The loops matmul, matmul_nt and matmul_tn ran before the GEMM kernel
// (src/math/gemm.h), kept here as the reference every compiled kernel
// variant must reproduce bit for bit.

Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out{a.rows(), b.cols()};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const auto brow = b.row(k);
      auto orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

Matrix reference_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out{a.rows(), b.rows()};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto arow = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      out(i, j) = dot(arow, b.row(j));
    }
  }
  return out;
}

Matrix reference_matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out{a.cols(), b.cols()};
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const auto arow = a.row(k);
    const auto brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      auto orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

using detail::GemmOp;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A value from the kernel's corner cases: 30% zeros of either sign (ReLU
/// density), 5% subnormals, and each of +inf, -inf and NaN at
/// `non_finite_rate`; the rest standard normal.
double draw_value(rngx::Rng& rng, double non_finite_rate) {
  const double u = rng.uniform();
  if (u < 0.15) return 0.0;
  if (u < 0.30) return -0.0;
  if (u < 0.35) return rng.uniform(-1.0, 1.0) * 1e-310;
  if (u < 0.35 + non_finite_rate) return kInf;
  if (u < 0.35 + 2 * non_finite_rate) return -kInf;
  if (u < 0.35 + 3 * non_finite_rate) return kNaN;
  return rng.normal();
}

Matrix draw_matrix(std::size_t rows, std::size_t cols, rngx::Rng& rng,
                   double non_finite_rate) {
  Matrix m{rows, cols};
  for (double& v : m.data()) v = draw_value(rng, non_finite_rate);
  return m;
}

/// Every output where the reference is not NaN has the reference's bits;
/// NaN appears exactly where the reference has NaN. (A NaN's sign and
/// payload depend on the add's operand order, which neither the old loops
/// nor the kernel pin.)
std::size_t count_mismatches(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return want.size() + 1;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    const bool same = std::isnan(w) ? std::isnan(g)
                                    : std::bit_cast<std::uint64_t>(g) ==
                                          std::bit_cast<std::uint64_t>(w);
    if (!same) ++bad;
  }
  return bad;
}

/// Runs op on (m, n, k)-shaped operands through every kernel variant this
/// host supports and compares each with the reference loops.
void expect_kernels_match(GemmOp op, std::size_t m, std::size_t n,
                          std::size_t k, double non_finite_rate,
                          rngx::Rng& rng) {
  Matrix a;
  Matrix b;
  Matrix want;
  switch (op) {
    case GemmOp::kNN:
      a = draw_matrix(m, k, rng, non_finite_rate);
      b = draw_matrix(k, n, rng, non_finite_rate);
      want = reference_matmul(a, b);
      break;
    case GemmOp::kNT:
      a = draw_matrix(m, k, rng, non_finite_rate);
      b = draw_matrix(n, k, rng, non_finite_rate);
      want = reference_matmul_nt(a, b);
      break;
    case GemmOp::kTN:
      a = draw_matrix(k, m, rng, non_finite_rate);
      b = draw_matrix(k, n, rng, non_finite_rate);
      want = reference_matmul_tn(a, b);
      break;
  }
  static const char* const kOpNames[] = {"nn", "nt", "tn"};
  for (const detail::GemmKernel& kernel : detail::gemm_kernels()) {
    if (!kernel.supported()) continue;
    Matrix got{m, n, -1.0};  // the kernel must overwrite every element
    detail::gemm(op, a, b, kernel, got);
    EXPECT_EQ(count_mismatches(got, want), 0u)
        << kernel.name << " " << kOpNames[static_cast<int>(op)] << " m=" << m
        << " n=" << n << " k=" << k << " non_finite_rate=" << non_finite_rate;
  }
}

constexpr GemmOp kOps[] = {GemmOp::kNN, GemmOp::kNT, GemmOp::kTN};

TEST(Gemm, BaselineKernelComesFirstAndIsAlwaysSupported) {
  const auto kernels = detail::gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string{kernels.front().name}, "baseline");
  EXPECT_TRUE(kernels.front().supported());
}

TEST(Gemm, DispatcherPicksTheHighestSupportedKernel) {
  const detail::GemmKernel* best = nullptr;
  for (const detail::GemmKernel& kernel : detail::gemm_kernels()) {
    if (kernel.supported()) best = &kernel;
  }
  EXPECT_EQ(&detail::active_gemm_kernel(), best);
}

TEST(Gemm, EveryKernelMatchesTheReferenceOnTileEdges) {
  // Every row remainder of the 4-row tiles and every column remainder of
  // the 4- and 8-wide panels, past two whole tiles each way, with k from 1.
  rngx::Rng rng{20261017};
  for (const GemmOp op : kOps) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n = 1; n <= 17; ++n) {
        for (const std::size_t k : {1, 2, 3, 5}) {
          expect_kernels_match(op, m, n, k, 0.0, rng);
          expect_kernels_match(op, m, n, k, 0.03, rng);
        }
      }
    }
  }
}

TEST(Gemm, EveryKernelMatchesTheReferenceOnTrainingShapes) {
  // The in-situ shapes (m×n×k) of mhc_mlp and cifar10_vgg11 training, and
  // mhc's HPO-sized hidden layer at its 483-wide end.
  struct Shape {
    GemmOp op;
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {GemmOp::kNT, 64, 150, 24}, {GemmOp::kTN, 150, 24, 64},
      {GemmOp::kNT, 32, 32, 64},  {GemmOp::kNT, 64, 2, 150},
      {GemmOp::kTN, 2, 150, 64},  {GemmOp::kNN, 64, 150, 2},
      {GemmOp::kNT, 64, 483, 24}, {GemmOp::kTN, 483, 24, 64},
      {GemmOp::kNN, 64, 483, 2},  {GemmOp::kTN, 2, 483, 64},
  };
  rngx::Rng rng{42};
  for (const Shape& s : shapes) {
    expect_kernels_match(s.op, s.m, s.n, s.k, 0.0, rng);
    expect_kernels_match(s.op, s.m, s.n, s.k, 0.001, rng);
  }
}

TEST(Gemm, ZeroTermsDropOnlyInMatmulAndMatmulTn) {
  // 0·inf is NaN: matmul and matmul_tn leave the term out, matmul_nt
  // keeps it, exactly as the loops they replaced.
  const Matrix a{{0.0, 2.0}};
  const Matrix b{{kInf}, {3.0}};
  EXPECT_EQ(matmul(a, b)(0, 0), 6.0);
  EXPECT_EQ(matmul_tn(a.transposed(), b)(0, 0), 6.0);
  EXPECT_TRUE(std::isnan(matmul_nt(a, b.transposed())(0, 0)));
}

// matmul and matmul_tn run the unmasked tile body only after checking
// that every B(p,j) a tile reads is finite (src/math/gemm.cpp). Each case
// below puts one ±inf or NaN in B where A's matching column holds zeros:
// the dropping reference stays finite there, and a variant whose check
// missed the value would return NaN.

/// A(i,p) for op kNN (a is m×k) or kTN (a is k×m).
double& a_at(GemmOp op, Matrix& a, std::size_t i, std::size_t p) {
  return op == GemmOp::kNN ? a(i, p) : a(p, i);
}

/// Every supported variant against the reference on op(a, b), where the
/// reference output (i, j) must be finite.
void expect_masked_term_dropped(GemmOp op, const Matrix& a, const Matrix& b,
                                std::size_t i, std::size_t j,
                                const std::string& what) {
  const Matrix want =
      op == GemmOp::kNN ? reference_matmul(a, b) : reference_matmul_tn(a, b);
  ASSERT_TRUE(std::isfinite(want(i, j))) << what;
  for (const detail::GemmKernel& kernel : detail::gemm_kernels()) {
    if (!kernel.supported()) continue;
    Matrix got;
    detail::gemm(op, a, b, kernel, got);
    EXPECT_EQ(count_mismatches(got, want), 0u)
        << kernel.name << " " << what << " op=" << static_cast<int>(op);
  }
}

/// Standard-normal A (as op's m×k) and B (k×n) with A(rows, p) = ±0 and
/// B(p, j) = `bad`.
void run_scan_case(GemmOp op, std::size_t m, std::size_t n, std::size_t k,
                   std::size_t p, std::size_t j, bool zero_whole_column,
                   const std::string& what) {
  rngx::Rng rng{m * 1000 + n * 10 + k};
  for (const double bad : {kInf, -kInf, kNaN}) {
    Matrix a = op == GemmOp::kNN ? draw_matrix(m, k, rng, 0.0)
                                 : draw_matrix(k, m, rng, 0.0);
    Matrix b = draw_matrix(k, n, rng, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      if (zero_whole_column || i + 1 == m) {
        a_at(op, a, i, p) = i % 2 == 0 ? 0.0 : -0.0;
      } else if (a_at(op, a, i, p) == 0.0) {
        a_at(op, a, i, p) = 1.5;  // only row m-1 drops the term
      }
    }
    b(p, j) = bad;
    expect_masked_term_dropped(op, a, b, m - 1, j,
                               what + " bad=" + std::to_string(bad));
  }
}

// n = 13 leaves a partial tail panel for every panel width (4 and 8), and
// m = 6 is past the scan's row threshold.
TEST(Gemm, ScanSeesNonFiniteBInTheLastRow) {
  for (const GemmOp op : {GemmOp::kNN, GemmOp::kTN}) {
    for (const std::size_t k : {1, 5}) {
      run_scan_case(op, 6, 13, k, k - 1, 2, false, "last row p");
    }
  }
}

TEST(Gemm, ScanSeesNonFiniteBInTheTailPanelsLastColumn) {
  for (const GemmOp op : {GemmOp::kNN, GemmOp::kTN}) {
    run_scan_case(op, 6, 13, 5, 2, 12, false, "tail panel, column n-1");
    run_scan_case(op, 6, 150, 64, 63, 149, false, "mhc width, column n-1");
  }
}

TEST(Gemm, ScanSeesNonFiniteBInARowWhoseAColumnIsAllZero) {
  for (const GemmOp op : {GemmOp::kNN, GemmOp::kTN}) {
    run_scan_case(op, 6, 13, 5, 1, 3, true, "all-zero A column");
    run_scan_case(op, 9, 16, 4, 2, 9, true, "all-zero A column, no tail");
  }
}

TEST(Gemm, FewRowsKeepTheMaskWithoutScanning) {
  ASSERT_GT(detail::kFiniteScanMinRows, 1u);
  for (const GemmOp op : {GemmOp::kNN, GemmOp::kTN}) {
    for (std::size_t m = 1; m < detail::kFiniteScanMinRows; ++m) {
      run_scan_case(op, m, 13, 5, 3, 6, false, "m below the scan threshold");
    }
  }
}

TEST(Gemm, PublicProductsRunTheActiveKernel) {
  rngx::Rng rng{7};
  const Matrix a = draw_matrix(9, 13, rng, 0.01);
  const Matrix b = draw_matrix(13, 11, rng, 0.01);
  const Matrix bt = b.transposed();
  const Matrix at = a.transposed();
  EXPECT_EQ(count_mismatches(matmul(a, b), reference_matmul(a, b)), 0u);
  EXPECT_EQ(count_mismatches(matmul_nt(a, bt), reference_matmul_nt(a, bt)),
            0u);
  EXPECT_EQ(count_mismatches(matmul_tn(at, b), reference_matmul_tn(at, b)),
            0u);
}

TEST(Gemm, EmptyReductionIsPositiveZero) {
  const Matrix a{3, 0};
  const Matrix b{0, 2};
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 2u);
  for (const double v : c.data()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v), 0u);
  }
}

}  // namespace
}  // namespace varbench::math
