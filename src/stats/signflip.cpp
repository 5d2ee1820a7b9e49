#include "src/stats/signflip.h"

#include <array>
#include <bit>

#include "src/math/isa.h"
#include "src/rngx/rng.h"

namespace varbench::stats::detail {
namespace {

// GCC/clang vectors of L u64 draws and of L double sums. They appear only
// inside the always-inline body below and never in a signature: passing
// one to a non-inlined call would tie the call's ABI to the ISA (GCC's
// -Wpsabi).
template <std::size_t L>
struct Lanes {
  typedef std::uint64_t bits
      __attribute__((vector_size(L * sizeof(std::uint64_t))));
  typedef double vec __attribute__((vector_size(L * sizeof(double))));
};

/// G vectors of L lanes: lane l of vector g runs permutation g·L + l. The
/// G independent add chains keep the adder busy while each waits on its
/// last add.
template <std::size_t L, std::size_t G>
[[gnu::always_inline]] inline void body(const SignflipArgs& args) {
  using U = typename Lanes<L>::bits;
  using V = typename Lanes<L>::vec;
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  const std::size_t live = args.seeds.size();
  std::array<U, 4> state[G] = {};
  for (std::size_t g = 0; g < G; ++g) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t j = g * L + l;
      std::array<std::uint64_t, 4> s{};  // spare lane: xoshiro's fixed point
      if (j < live) rngx::xoshiro_seed(s, args.seeds[j]);
      for (std::size_t w = 0; w < 4; ++w) state[g][w][l] = s[w];
    }
  }
  V acc[G] = {};  // +0.0, where the scalar loop starts
  for (const double di : args.d) {
    const U d_bits = U{} + std::bit_cast<std::uint64_t>(di);
    for (std::size_t g = 0; g < G; ++g) {
      U draw;
      rngx::xoshiro256pp_next(state[g], draw);
      acc[g] += reinterpret_cast<V>(d_bits ^ (draw & kSignBit));
    }
  }
  for (std::size_t j = 0; j < live; ++j) args.sums[j] = acc[j / L][j % L];
}

bool always_supported() { return true; }
void run_baseline(const SignflipArgs& args) { body<2, 4>(args); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void run_avx2(const SignflipArgs& args) {
  body<4, 2>(args);
}
__attribute__((target("avx512f"))) void run_avx512f(
    const SignflipArgs& args) {
  body<8, 4>(args);
}
#endif

constexpr SignflipKernel kKernels[] = {
    {"baseline", 2, 8, &always_supported, &run_baseline},
#if defined(__x86_64__) || defined(__i386__)
    {"avx2", 4, 8, &math::detail::has_avx2, &run_avx2},
    {"avx512f", 8, 32, &math::detail::has_avx512f, &run_avx512f},
#endif
};

}  // namespace

std::span<const SignflipKernel> signflip_kernels() { return kKernels; }

const SignflipKernel& active_signflip_kernel() {
  static const SignflipKernel& chosen = math::detail::highest_supported(
      signflip_kernels());
  return chosen;
}

}  // namespace varbench::stats::detail
