#include "src/math/gemm.h"

#include <algorithm>
#include <cstring>

#include "src/exec/scratch.h"
#include "src/math/isa.h"

namespace varbench::math::detail {
namespace {

// A GCC/clang vector of L doubles. It appears only inside the always-inline
// body below and never in a signature: passing one to a non-inlined call
// would tie the call's ABI to the ISA (GCC's -Wpsabi).
template <std::size_t L>
struct Lanes {
  typedef double vec __attribute__((vector_size(L * sizeof(double))));
};

/// One MR-row × one-panel output tile. The MR×NV accumulators live in
/// registers for the whole p loop, start at +0.0 and take one multiply
/// then one add per p, in ascending p: the order of the scalar loops.
template <std::size_t L, std::size_t MR, std::size_t NV, bool kDropZeroA>
[[gnu::always_inline]] inline void tile(const GemmArgs& g, std::size_t i0,
                                        std::size_t q) {
  using V = typename Lanes<L>::vec;
  using M = decltype(V{} != V{});  // lane masks, as comparisons yield them
  constexpr std::size_t kNr = NV * L;
  const std::size_t full = g.n / kNr;
  const double* panel = q < full ? g.b + q * kNr : g.b_tail;
  const std::size_t panel_rs = q < full ? g.b_rs : g.b_tail_rs;
  const double* a = g.a + i0 * g.a_rs;
  V acc[MR][NV] = {};
  for (std::size_t p = 0; p < g.k; ++p) {
    V b[NV];
    for (std::size_t v = 0; v < NV; ++v) {
      std::memcpy(&b[v], panel + p * panel_rs + v * L, sizeof(V));
    }
    for (std::size_t r = 0; r < MR; ++r) {
      // Splat A(i,p) exactly: x - (+0.0) is x for every x, where 0 + x
      // would turn -0.0 into +0.0.
      const V x = a[r * g.a_rs + p * g.a_cs] - V{};
      if constexpr (kDropZeroA) {
        // Branch-free drop: a dropped term adds +0.0, which leaves every
        // accumulator unchanged (an ascending sum from +0.0 is never
        // -0.0), whatever 0·B(p,j) would have been.
        const M keep = x != V{};
        for (std::size_t v = 0; v < NV; ++v) {
          const M product = reinterpret_cast<M>(x * b[v]);
          acc[r][v] += reinterpret_cast<V>(product & keep);
        }
      } else {
        for (std::size_t v = 0; v < NV; ++v) acc[r][v] += x * b[v];
      }
    }
  }
  // Element-wise stores past the last full vector: a variable-length
  // memcpy would take the accumulators' address and keep them in memory.
  const std::size_t j0 = q * kNr;
  const std::size_t cols = std::min(kNr, g.n - j0);
  for (std::size_t r = 0; r < MR; ++r) {
    double* c = g.c + (i0 + r) * g.n + j0;
    for (std::size_t v = 0; v < NV; ++v) {
      if ((v + 1) * L <= cols) {
        std::memcpy(c + v * L, &acc[r][v], sizeof(V));
      } else {
        for (std::size_t l = 0; l < L; ++l) {
          if (v * L + l < cols) c[v * L + l] = acc[r][v][l];
        }
      }
    }
  }
}

/// Rows i.. in blocks of MR, then the remainder in halving blocks.
template <std::size_t L, std::size_t MR, std::size_t NV, bool kDropZeroA>
[[gnu::always_inline]] inline void row_blocks(const GemmArgs& g,
                                              std::size_t i) {
  const std::size_t panels = (g.n + NV * L - 1) / (NV * L);
  for (; i + MR <= g.m; i += MR) {
    for (std::size_t q = 0; q < panels; ++q) {
      tile<L, MR, NV, kDropZeroA>(g, i, q);
    }
  }
  if constexpr (MR > 1) row_blocks<L, MR / 2, NV, kDropZeroA>(g, i);
}

/// Whether every B(p,j) a tile reads is finite: the full panels' rows and
/// the tail panel's rows, whose padding is +0.0. x·0 is ±0 for finite x
/// and NaN for ±inf and NaN, so `x·0 != 0` flags exactly the values for
/// which keeping a zero-A term differs from dropping it.
template <std::size_t L, std::size_t NV>
[[gnu::always_inline]] inline bool b_is_finite(const GemmArgs& g) {
  using V = typename Lanes<L>::vec;
  using M = decltype(V{} != V{});
  constexpr std::size_t kNr = NV * L;
  const std::size_t full_cols = g.n / kNr * kNr;
  const std::size_t tail_cols = full_cols < g.n ? kNr : 0;
  M bad = {};
  for (std::size_t p = 0; p < g.k; ++p) {
    const double* row = g.b + p * g.b_rs;
    for (std::size_t j = 0; j < full_cols; j += L) {
      V x;
      std::memcpy(&x, row + j, sizeof(V));
      bad |= x * V{} != V{};
    }
    const double* tail = g.b_tail + p * g.b_tail_rs;
    for (std::size_t j = 0; j < tail_cols; j += L) {
      V x;
      std::memcpy(&x, tail + j, sizeof(V));
      bad |= x * V{} != V{};
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    if (bad[l] != 0) return false;
  }
  return true;
}

/// The kernel body every variant compiles: L-lane vectors, MR-row tiles
/// (a power of two), NV vectors per panel row (panel width NV·L). A kept
/// term whose A(i,p) is ±0 adds 0·B(p,j), which is ±0 when B(p,j) is
/// finite; like a dropped term's +0.0, it leaves an ascending sum from +0.0
/// unchanged. So the masked tile runs only where B holds ±inf or NaN, or
/// where m is too small for the check to pay.
template <std::size_t L, std::size_t MR, std::size_t NV>
[[gnu::always_inline]] inline void body(const GemmArgs& g) {
  if (g.drop_zero_a &&
      (g.m < kFiniteScanMinRows || !b_is_finite<L, NV>(g))) {
    row_blocks<L, MR, NV, true>(g, 0);
  } else {
    row_blocks<L, MR, NV, false>(g, 0);
  }
}

bool always_supported() { return true; }
void run_baseline(const GemmArgs& g) { body<2, 4, 2>(g); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void run_avx2(const GemmArgs& g) {
  body<4, 4, 2>(g);
}
__attribute__((target("avx512f"))) void run_avx512f(const GemmArgs& g) {
  body<8, 4, 1>(g);
}
#endif

constexpr GemmKernel kKernels[] = {
    {"baseline", 4, &always_supported, &run_baseline},
#if defined(__x86_64__) || defined(__i386__)
    {"avx2", 8, &has_avx2, &run_avx2},
    {"avx512f", 8, &has_avx512f, &run_avx512f},
#endif
};

}  // namespace

std::span<const GemmKernel> gemm_kernels() { return kKernels; }

const GemmKernel& active_gemm_kernel() {
  static const GemmKernel& chosen = highest_supported(gemm_kernels());
  return chosen;
}

void gemm(GemmOp op, const Matrix& a, const Matrix& b,
          const GemmKernel& kernel, Matrix& out) {
  GemmArgs g;
  switch (op) {
    case GemmOp::kNN:
      g.m = a.rows();
      g.k = a.cols();
      g.n = b.cols();
      g.a_rs = a.cols();
      g.a_cs = 1;
      break;
    case GemmOp::kNT:
      g.m = a.rows();
      g.k = a.cols();
      g.n = b.rows();
      g.a_rs = a.cols();
      g.a_cs = 1;
      break;
    case GemmOp::kTN:
      g.m = a.cols();
      g.k = a.rows();
      g.n = b.cols();
      g.a_rs = 1;
      g.a_cs = a.cols();
      break;
  }
  out.resize(g.m, g.n);
  if (g.m == 0 || g.n == 0 || g.k == 0) {
    out.fill(0.0);  // +0.0: the empty sum, and every sum when k = 0
    return;
  }

  const std::size_t nr = kernel.nr;
  const std::size_t full = g.n / nr;
  const std::size_t tail_cols = g.n - full * nr;
  const double* src = b.data().data();
  const std::size_t padded = (full + (tail_cols > 0 ? 1 : 0)) * nr;
  exec::ScratchBuffer<double> packed{
      op == GemmOp::kNT ? g.k * padded : (tail_cols > 0 ? g.k * nr : 0)};
  if (op == GemmOp::kNT) {
    // B = bᵀ is not unit-stride along j: copy it to a k × n̄ row-major
    // block, n̄ = n rounded up to whole panels, zero-padded.
    for (std::size_t p = 0; p < g.k; ++p) {
      double* dst = packed.data() + p * padded;
      for (std::size_t j = 0; j < g.n; ++j) dst[j] = src[j * g.k + p];
      std::fill(dst + g.n, dst + padded, 0.0);
    }
    g.b = packed.data();
    g.b_rs = padded;
    g.b_tail = packed.data() + full * nr;
    g.b_tail_rs = padded;
  } else {
    // B = b is read in place; only a last partial panel is copied
    // (zero-padded), so every load in the body is a full vector.
    for (std::size_t p = 0; p < g.k && tail_cols > 0; ++p) {
      double* dst = packed.data() + p * nr;
      std::copy_n(src + p * g.n + full * nr, tail_cols, dst);
      std::fill(dst + tail_cols, dst + nr, 0.0);
    }
    g.b = src;
    g.b_rs = g.n;
    g.b_tail = packed.data();
    g.b_tail_rs = nr;
  }
  g.a = a.data().data();
  g.c = out.data().data();
  g.drop_zero_a = op != GemmOp::kNT;
  kernel.run(g);
}

}  // namespace varbench::math::detail
