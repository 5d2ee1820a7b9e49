// The elementwise passes of one MLP training step and the SGD/Adam updates,
// compiled once per ISA — a detail header like src/math/gemm.h: Mlp and
// the optimizers call active_step_kernels(); tests include this header to
// run every compiled variant, not only the one the dispatcher picks.
//
// Contract (docs/determinism.md, "The training step's order contract"):
// each pass performs, for every element, the operations of the scalar
// loop it replaced, in that loop's order, and vectorizes only across
// elements. No sum is split or reassociated, no multiply is fused into an
// add and no division becomes a multiply, so every variant returns the
// same bits, NaN where the loop gives NaN.
#pragma once

#include <cstddef>
#include <span>

namespace varbench::ml::detail {

/// After a layer's forward product, row by row: pre(r,c) += bias[c]. For
/// a hidden layer (`hidden` set), then hidden(r,c) = std::max(pre(r,c),
/// 0.0), which keeps NaN and -0.0, times mask(r,c) when `mask` is set.
struct ForwardArgs {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double* pre = nullptr;          // rows × cols, row-major
  const double* bias = nullptr;   // cols
  double* hidden = nullptr;       // rows × cols, or null for the logits
  const double* mask = nullptr;   // rows × cols dropout scales, or null
};

/// grad[c] = ((+0.0 + delta(0,c)) + delta(1,c)) + ... + delta(rows-1,c):
/// the bias gradient, rows summed in ascending order. Writes every grad[c].
struct BiasGradArgs {
  std::size_t rows = 0;
  std::size_t cols = 0;
  const double* delta = nullptr;  // rows × cols, row-major
  double* grad = nullptr;         // cols
};

/// ReLU's derivative and the dropout mask: delta[j] = (pre[j] <= 0.0 ? 0.0
/// : delta[j]) times mask[j] when `mask` is set. The select keeps a NaN
/// pre-activation's gradient, as the original branch did.
struct ReluGradArgs {
  std::size_t n = 0;
  const double* pre = nullptr;
  const double* mask = nullptr;  // or null without dropout
  double* delta = nullptr;
};

/// One SGD update of n parameters: g = grad[j] + weight_decay·w[j] (just
/// grad[j] without `decay`, as for biases); vel[j] = momentum·vel[j] + g;
/// w[j] -= lr·vel[j].
struct SgdArgs {
  std::size_t n = 0;
  double* w = nullptr;
  const double* grad = nullptr;
  double* vel = nullptr;
  double lr = 0.0;
  double momentum = 0.0;
  double weight_decay = 0.0;
  bool decay = false;
};

/// One Adam update of n parameters: g as for SGD; m[j] = β1·m[j] +
/// (1 - β1)·g; v[j] = β2·v[j] + (1 - β2)·g·g; w[j] -= lr·(m[j]/bc1) /
/// (sqrt(v[j]/bc2) + 1e-8), with bc1, bc2 the bias corrections.
struct AdamArgs {
  std::size_t n = 0;
  double* w = nullptr;
  const double* grad = nullptr;
  double* m = nullptr;
  double* v = nullptr;
  double lr = 0.0;
  double beta1 = 0.0;
  double beta2 = 0.0;
  double bc1 = 0.0;
  double bc2 = 0.0;
  double weight_decay = 0.0;
  bool decay = false;
};

/// One compiled ISA variant of the five passes.
struct StepKernels {
  const char* name;  // "baseline", "avx2", "avx512f"
  bool (*supported)();
  void (*forward)(const ForwardArgs&);
  void (*bias_grad)(const BiasGradArgs&);
  void (*relu_grad)(const ReluGradArgs&);
  void (*sgd)(const SgdArgs&);
  void (*adam)(const AdamArgs&);
};

/// Every variant compiled into this build, lowest ISA first. "baseline"
/// (the build's own target flags) is always first and always supported.
[[nodiscard]] std::span<const StepKernels> step_kernels();

/// The highest-ISA supported variant, chosen once per process.
[[nodiscard]] const StepKernels& active_step_kernels();

}  // namespace varbench::ml::detail
