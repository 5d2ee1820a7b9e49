// The lane-parallel body under stats::paired_permutation_test — a detail
// header: callers use that function; tests include this header to run
// every compiled ISA variant, not only the one the dispatcher picks.
//
// Contract (docs/determinism.md, "Floating point"): permutation j of a
// call returns
//
//   sums[j] = ((+0.0 + s_0·d[0]) + s_1·d[1]) + ... + s_{n-1}·d[n-1]
//
// summed in ascending i, where s_i is -1 when bit 63 of draw i of
// Rng{seeds[j]} is set and +1 otherwise. That is the sum of the scalar
// loop `sum += rng.bernoulli(0.5) ? d[i] : -d[i]`, bit for bit:
// bernoulli(0.5) is uniform() < 0.5, which holds exactly when bit 63 of
// the draw is clear, and -d is d with its sign bit flipped. So a lane
// XORs the draw's bit 63 into d's sign bit (no multiply, no branch) and
// adds into its own accumulator. Each SIMD lane runs one permutation's
// own xoshiro256++ stream; no sum is split or reassociated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace varbench::stats::detail {

/// One call's operands: one permutation per seed, at most the kernel's
/// `block` of them. Lanes past seeds.size() are computed and discarded.
struct SignflipArgs {
  std::span<const double> d;             // the paired differences
  std::span<const std::uint64_t> seeds;  // the permutations' Rng seeds
  std::span<double> sums;                // one per seed, every one written
};

/// One compiled ISA variant of the lane body.
struct SignflipKernel {
  const char* name;   // "baseline", "avx2", "avx512f"
  std::size_t lanes;  // permutations per vector
  std::size_t block;  // permutations per call: lanes × vectors in flight
  bool (*supported)();
  void (*run)(const SignflipArgs&);
};

/// Every variant compiled into this build, lowest ISA first. "baseline"
/// (the build's own target flags) is always first and always supported.
[[nodiscard]] std::span<const SignflipKernel> signflip_kernels();

/// The highest-ISA supported variant, chosen once per process.
[[nodiscard]] const SignflipKernel& active_signflip_kernel();

}  // namespace varbench::stats::detail
