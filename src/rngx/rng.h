// Deterministic, platform-independent random number generation.
//
// varbench reproduces experiments about *sources of randomness*, so the RNG
// layer must be bit-reproducible across platforms and standard libraries.
// std::mt19937 is portable but the std::*_distribution adaptors are not;
// here both the engine (xoshiro256++) and the distributions are our own.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/metrics/metrics.h"

namespace varbench::rngx {

/// SplitMix64: used to expand a 64-bit seed into engine state and to derive
/// independent stream seeds from (master seed, tag) pairs.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a hash of a string tag, for deriving named sub-streams.
[[nodiscard]] constexpr std::uint64_t hash_tag(std::string_view tag) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Derive an independent stream seed from a master seed and a tag. Two
/// different tags give statistically independent streams; the same pair is
/// always the same stream.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::string_view tag) {
  std::uint64_t s = master ^ hash_tag(tag);
  return splitmix64(s);
}

/// Full serializable state of an Rng — checkpointing RNG streams is what
/// makes interrupted-and-resumed trainings bit-identical to uninterrupted
/// ones (the paper's Appendix A reproducibility protocol).
struct RngState {
  std::array<std::uint64_t, 4> engine{};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  friend bool operator==(const RngState&, const RngState&) = default;
};

namespace detail {
/// The process-global metrics sink, bound once (src/rngx/rng.cpp): a draw
/// pays the one-branch is_enabled gate of rngx.draws and no global_sink()
/// call.
extern metrics::Sink& rng_sink;
}  // namespace detail

/// xoshiro256++ engine (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  [[nodiscard]] RngState save_state() const {
    return {state_, cached_normal_, has_cached_normal_};
  }
  void load_state(const RngState& s) {
    state_ = s.engine;
    cached_normal_ = s.cached_normal;
    has_cached_normal_ = s.has_cached_normal;
  }

  /// The hot path (every distribution bottoms out here), inline so the
  /// resampling kernels' draw loops carry no call.
  [[nodiscard]] std::uint64_t next_u64() {
    detail::rng_sink.add(metrics::kRngxDraws);
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }
  std::uint64_t operator()() { return next_u64(); }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  [[nodiscard]] double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Log-uniform double in [lo, hi), lo > 0.
  [[nodiscard]] double log_uniform(double lo, double hi);
  /// Uniform integer in [0, n). Unbiased (rejection sampling).
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller (deterministic cache of the pair).
  [[nodiscard]] double normal();
  [[nodiscard]] double normal(double mean, double stddev);
  /// Bernoulli draw.
  [[nodiscard]] bool bernoulli(double p) { return uniform() < p; }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// n indices drawn uniformly with replacement from [0, pool) — the bootstrap
  /// resampling primitive.
  [[nodiscard]] std::vector<std::size_t> sample_with_replacement(
      std::size_t pool, std::size_t n);

  /// A derived, independent child generator (for nested procedures that must
  /// not perturb the parent's stream).
  [[nodiscard]] Rng split(std::string_view tag);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace varbench::rngx
