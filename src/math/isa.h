// Which instruction sets this CPU runs, for the kernels compiled once per
// ISA through target attributes (src/math/gemm.h, src/stats/signflip.h,
// src/ml/step_kernels.h). Every variant of such a kernel returns the same
// bits, so the choice is a speed matter only and is made from CPU features
// alone, once per process.
#pragma once

#include <span>

namespace varbench::math::detail {

#if defined(__x86_64__) || defined(__i386__)
// __builtin_cpu_init first: a caller may run before libgcc's constructor
// has filled the feature bits.
[[nodiscard]] inline bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
[[nodiscard]] inline bool has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
#endif

/// The last supported entry of a variant table ordered lowest ISA first,
/// whose first entry ("baseline") is always supported.
template <typename Kernel>
[[nodiscard]] const Kernel& highest_supported(std::span<const Kernel> kernels) {
  const Kernel* best = &kernels.front();
  for (const Kernel& kernel : kernels) {
    if (kernel.supported()) best = &kernel;
  }
  return *best;
}

}  // namespace varbench::math::detail
