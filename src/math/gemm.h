// The one GEMM kernel under math::matmul / matmul_nt / matmul_tn — a
// detail header: callers use those three functions; tests include this
// header to run every compiled ISA variant, not only the one the
// dispatcher picks.
//
// Contract (docs/determinism.md, "Floating point"): every output is
//
//   C(i,j) = ((+0.0 + A(i,0)·B(0,j)) + A(i,1)·B(1,j)) + ... + A(i,k-1)·B(k-1,j)
//
// summed in ascending p, one rounded multiply then one rounded add per
// term, never fused and never reassociated. The kernel vectorizes across
// outputs j, never across the reduction index p, so every variant returns
// the same bits as the scalar loops it replaced. With `drop_zero_a`, terms
// whose A(i,p) is zero are left out (matmul and matmul_tn keep the
// ReLU-sparsity skip of the old loops); that changes a result only where
// the matching B(p,j) is infinite or NaN, since 0·inf is NaN. So a variant
// first checks that every B(p,j) its tiles read is finite, and if so keeps
// every term, which needs no mask (docs/determinism.md, "Zero terms").
#pragma once

#include <cstddef>
#include <span>

#include "src/math/matrix.h"

namespace varbench::math::detail {

/// One call's operands. A is read in place through its strides. B is read
/// as nr-wide column panels, every load a full vector: panel q < n/nr at
/// b + q·nr with row stride b_rs, and the last, partial panel (if nr does
/// not divide n) at b_tail with row stride b_tail_rs, zero-padded past
/// column n. C is row-major m×n with row stride n, and every element is
/// written.
struct GemmArgs {
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  const double* a = nullptr;
  std::size_t a_rs = 0;  // A(i,p) = a[i·a_rs + p·a_cs]
  std::size_t a_cs = 0;
  const double* b = nullptr;  // B(p,j) = b[p·b_rs + j] for j < nr·(n/nr)
  std::size_t b_rs = 0;
  const double* b_tail = nullptr;
  std::size_t b_tail_rs = 0;
  double* c = nullptr;
  bool drop_zero_a = false;
};

/// With `drop_zero_a`, a call with fewer rows than this keeps the mask and
/// skips the finiteness check of B: the check reads all of B once, which
/// costs about as much as a one-row product. Chosen by timing mhc_mlp's
/// one-output layer, whose weight gradient is a 1×150 product over 64
/// terms.
inline constexpr std::size_t kFiniteScanMinRows = 4;

/// One compiled ISA variant of the kernel body.
struct GemmKernel {
  const char* name;   // "baseline", "avx2", "avx512f"
  std::size_t nr;     // panel width in doubles the body expects
  bool (*supported)();
  void (*run)(const GemmArgs&);
};

/// Every variant compiled into this build, lowest ISA first. "baseline"
/// (the build's own target flags) is always first and always supported.
[[nodiscard]] std::span<const GemmKernel> gemm_kernels();

/// The highest-ISA supported variant, chosen once per process.
[[nodiscard]] const GemmKernel& active_gemm_kernel();

/// How matmul's operands map onto A and B.
enum class GemmOp {
  kNN,  // a(m×k) · b(k×n)
  kNT,  // a(m×k) · bᵀ, b (n×k)
  kTN,  // aᵀ · b, a (k×m), b (k×n)
};

/// The product `op` of a and b through `kernel`, written into `out`
/// (resized in place, every element written); shapes already checked and
/// `out` is neither operand.
void gemm(GemmOp op, const Matrix& a, const Matrix& b,
          const GemmKernel& kernel, Matrix& out);

}  // namespace varbench::math::detail
