#include "src/rngx/rng.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace varbench::rngx {

namespace detail {
// Totals stay thread-count-invariant because the multiset of
// derivations/draws is fixed by the determinism contract (pinned by
// tests/test_metrics.cpp).
metrics::Sink& rng_sink = metrics::global_sink();
}  // namespace detail

void Rng::reseed(std::uint64_t seed) {
  detail::rng_sink.add(metrics::kRngxStreamsDerived);
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  has_cached_normal_ = false;
}

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw std::invalid_argument("uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

double Rng::log_uniform(double lo, double hi) {
  if (!(lo > 0.0 && hi >= lo)) {
    throw std::invalid_argument("log_uniform: need 0 < lo <= hi");
  }
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index: n == 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const auto range =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi-lo fits: caller's contract
  return lo + static_cast<std::int64_t>(uniform_index(range));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

std::vector<std::size_t> Rng::sample_with_replacement(std::size_t pool,
                                                      std::size_t n) {
  std::vector<std::size_t> out(n);
  for (auto& idx : out) idx = uniform_index(pool);
  return out;
}

Rng Rng::split(std::string_view tag) {
  const std::uint64_t child_seed = next_u64() ^ hash_tag(tag);
  return Rng{child_seed};
}

}  // namespace varbench::rngx
