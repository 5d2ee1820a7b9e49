#include "src/math/matrix.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/math/gemm.h"

namespace varbench::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_{rows}, cols_{cols}, data_{std::move(data)} {
  if (data_.size() != rows_ * cols_) {
    throw std::invalid_argument("Matrix: data size does not match dimensions");
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t{cols_, rows_};
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double Matrix::squared_norm() const noexcept {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void Matrix::fill(double value) noexcept {
  for (double& v : data_) v = value;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

namespace {

/// The out-parameter products' shared entry: shape and alias checks, then
/// the active kernel.
void checked_gemm(detail::GemmOp op, bool shapes_match, const char* what,
                  const Matrix& a, const Matrix& b, Matrix& out) {
  if (!shapes_match) {
    throw std::invalid_argument(std::string{what} + ": shape mismatch");
  }
  if (&out == &a || &out == &b) {
    throw std::invalid_argument(std::string{what} +
                                ": output aliases an operand");
  }
  detail::gemm(op, a, b, detail::active_gemm_kernel(), out);
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  checked_gemm(detail::GemmOp::kNN, a.cols() == b.rows(), "matmul", a, b, out);
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  checked_gemm(detail::GemmOp::kNT, a.cols() == b.cols(), "matmul_nt", a, b,
               out);
}

void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  checked_gemm(detail::GemmOp::kTN, a.rows() == b.rows(), "matmul_tn", a, b,
               out);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul(a, b, out);
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_nt(a, b, out);
  return out;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_tn(a, b, out);
  return out;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: shape mismatch");
  std::vector<double> out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) out[i] = dot(a.row(i), x);
  return out;
}

Matrix identity(std::size_t n) {
  Matrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace varbench::math
