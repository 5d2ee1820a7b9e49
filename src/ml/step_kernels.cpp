#include "src/ml/step_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/math/isa.h"

namespace varbench::ml::detail {
namespace {

// Each pass is one always-inline body of plain element loops, written as
// the scalar loops it replaced. A variant is that body compiled under the
// variant's target attribute, where the compiler vectorizes it across
// elements at the ISA's width; with -ffp-contract=off and no fast-math
// flags it may not reorder, fuse or reassociate any element's operations.
// The __restrict pointers tell it that no two operands overlap, which the
// callers guarantee.

[[gnu::always_inline]] inline void pass(const ForwardArgs& a) {
  const std::size_t cols = a.cols;
  const double* __restrict bias = a.bias;
  for (std::size_t r = 0; r < a.rows; ++r) {
    double* __restrict pre = a.pre + r * cols;
    if (a.hidden == nullptr) {
      for (std::size_t c = 0; c < cols; ++c) pre[c] += bias[c];
      continue;
    }
    double* __restrict h = a.hidden + r * cols;
    if (a.mask != nullptr) {
      const double* __restrict mask = a.mask + r * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const double z = pre[c] + bias[c];
        pre[c] = z;
        h[c] = std::max(z, 0.0) * mask[c];
      }
    } else {
      for (std::size_t c = 0; c < cols; ++c) {
        const double z = pre[c] + bias[c];
        pre[c] = z;
        h[c] = std::max(z, 0.0);
      }
    }
  }
}

[[gnu::always_inline]] inline void pass(const BiasGradArgs& a) {
  const std::size_t cols = a.cols;
  double* __restrict grad = a.grad;
  for (std::size_t c = 0; c < cols; ++c) grad[c] = 0.0;
  for (std::size_t r = 0; r < a.rows; ++r) {
    const double* __restrict row = a.delta + r * cols;
    for (std::size_t c = 0; c < cols; ++c) grad[c] += row[c];
  }
}

[[gnu::always_inline]] inline void pass(const ReluGradArgs& a) {
  const double* __restrict pre = a.pre;
  double* __restrict delta = a.delta;
  if (a.mask != nullptr) {
    const double* __restrict mask = a.mask;
    for (std::size_t j = 0; j < a.n; ++j) {
      delta[j] = (pre[j] <= 0.0 ? 0.0 : delta[j]) * mask[j];
    }
  } else {
    for (std::size_t j = 0; j < a.n; ++j) {
      delta[j] = pre[j] <= 0.0 ? 0.0 : delta[j];
    }
  }
}

template <bool kDecay>
[[gnu::always_inline]] inline void sgd(const SgdArgs& a) {
  double* __restrict w = a.w;
  const double* __restrict grad = a.grad;
  double* __restrict vel = a.vel;
  const double lr = a.lr;
  const double momentum = a.momentum;
  const double weight_decay = a.weight_decay;
  for (std::size_t j = 0; j < a.n; ++j) {
    const double g = kDecay ? grad[j] + weight_decay * w[j] : grad[j];
    vel[j] = momentum * vel[j] + g;
    w[j] -= lr * vel[j];
  }
}

[[gnu::always_inline]] inline void pass(const SgdArgs& a) {
  if (a.decay) {
    sgd<true>(a);
  } else {
    sgd<false>(a);
  }
}

template <bool kDecay>
[[gnu::always_inline]] inline void adam(const AdamArgs& a) {
  constexpr double kEps = 1e-8;
  double* __restrict w = a.w;
  const double* __restrict grad = a.grad;
  double* __restrict m = a.m;
  double* __restrict v = a.v;
  const double lr = a.lr;
  const double b1 = a.beta1;
  const double b2 = a.beta2;
  const double bc1 = a.bc1;
  const double bc2 = a.bc2;
  const double weight_decay = a.weight_decay;
  for (std::size_t j = 0; j < a.n; ++j) {
    const double g = kDecay ? grad[j] + weight_decay * w[j] : grad[j];
    m[j] = b1 * m[j] + (1.0 - b1) * g;
    v[j] = b2 * v[j] + (1.0 - b2) * g * g;
    w[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + kEps);
  }
}

[[gnu::always_inline]] inline void pass(const AdamArgs& a) {
  if (a.decay) {
    adam<true>(a);
  } else {
    adam<false>(a);
  }
}

bool always_supported() { return true; }

template <typename Args>
void run_baseline(const Args& a) {
  pass(a);
}

#if defined(__x86_64__) || defined(__i386__)
template <typename Args>
__attribute__((target("avx2"))) void run_avx2(const Args& a) {
  pass(a);
}
template <typename Args>
__attribute__((target("avx512f"))) void run_avx512f(const Args& a) {
  pass(a);
}
#endif

constexpr StepKernels kKernels[] = {
    {"baseline", &always_supported, &run_baseline<ForwardArgs>,
     &run_baseline<BiasGradArgs>, &run_baseline<ReluGradArgs>,
     &run_baseline<SgdArgs>, &run_baseline<AdamArgs>},
#if defined(__x86_64__) || defined(__i386__)
    {"avx2", &math::detail::has_avx2, &run_avx2<ForwardArgs>,
     &run_avx2<BiasGradArgs>, &run_avx2<ReluGradArgs>, &run_avx2<SgdArgs>,
     &run_avx2<AdamArgs>},
    {"avx512f", &math::detail::has_avx512f, &run_avx512f<ForwardArgs>,
     &run_avx512f<BiasGradArgs>, &run_avx512f<ReluGradArgs>,
     &run_avx512f<SgdArgs>, &run_avx512f<AdamArgs>},
#endif
};

}  // namespace

std::span<const StepKernels> step_kernels() { return kKernels; }

const StepKernels& active_step_kernels() {
  static const StepKernels& chosen =
      math::detail::highest_supported(step_kernels());
  return chosen;
}

}  // namespace varbench::ml::detail
