// Dense row-major matrix of double, the numeric workhorse for the ML and GP
// substrates. Deliberately minimal: varbench needs matmul, transpose,
// elementwise ops and views — not a full BLAS.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace varbench::math {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_{rows}, cols_{cols}, data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm squared: sum of squared entries.
  [[nodiscard]] double squared_norm() const noexcept;

  void fill(double value) noexcept;

  /// Reshape to rows×cols in place, reusing the storage's capacity: once a
  /// buffer has held its largest shape, resizing it never allocates. Values
  /// are kept in storage order and new elements are 0.0; callers that
  /// resize an output overwrite every element.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  friend bool operator==(const Matrix& a, const Matrix& b) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator-(Matrix a, const Matrix& b);
[[nodiscard]] Matrix operator*(Matrix a, double s);
[[nodiscard]] Matrix operator*(double s, Matrix a);

// The three products below run one GEMM kernel (src/math/gemm.h): each
// output is summed in ascending k from +0.0, one multiply then one add per
// term, with the same bits on every ISA the kernel dispatches to. Each has
// an out-parameter form that resizes `out` in place and writes every
// element of it, so a caller that reuses `out` allocates nothing; `out`
// may not be `a` or `b` (std::invalid_argument).

/// a(m×k) * b(k×n) → (m×n).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// a(m×k) * bᵀ where b is (n×k) → (m×n). Avoids materializing transposes in
/// the MLP backward pass.
[[nodiscard]] Matrix matmul_nt(const Matrix& a, const Matrix& b);
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out);

/// aᵀ * b where a is (k×m), b is (k×n) → (m×n).
[[nodiscard]] Matrix matmul_tn(const Matrix& a, const Matrix& b);
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out);

/// Matrix–vector product: a(m×n) * x(n) → (m).
[[nodiscard]] std::vector<double> matvec(const Matrix& a,
                                         std::span<const double> x);

[[nodiscard]] Matrix identity(std::size_t n);

[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

}  // namespace varbench::math
