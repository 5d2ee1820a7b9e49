// The typed form of the bench/ environment-knob convention. Every
// VARBENCH_* knob is parsed exactly once — into a BenchSpec — instead of
// each bench binary re-reading getenv mid-run; `varbench bench` builds the
// same struct from CLI flags, so harnesses driven either way see one
// uniform configuration surface.
//
// Knobs (all optional; `std::nullopt` means "keep the spec's default"):
//   VARBENCH_SCALE    data-pool / epoch scale in (0, 1]
//   VARBENCH_REPS     repetitions (the shardable count)
//   VARBENCH_SEED     master seed, full u64 range (0 is a legal seed)
//   VARBENCH_THREADS  worker count (0 = all cores; bit-identical anyway)
//   VARBENCH_FULL=1   paper-faithful sizes (overrides SCALE)
//   VARBENCH_SHARD    "i/N" — run one slice
//   VARBENCH_OUT      artifact output directory
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/exec/exec_context.h"
#include "src/study/study_spec.h"

namespace varbench::benchutil {

struct BenchSpec {
  std::optional<double> scale;        // VARBENCH_SCALE
  std::optional<std::size_t> reps;    // VARBENCH_REPS
  std::optional<std::uint64_t> seed;  // VARBENCH_SEED
  std::size_t threads = 0;            // VARBENCH_THREADS
  bool full = false;                  // VARBENCH_FULL
  std::optional<study::ShardSpec> shard;  // VARBENCH_SHARD
  std::string out_dir;                // VARBENCH_OUT

  /// Parse the environment once. Malformed numeric values fall back to
  /// "unset" (the pre-BenchSpec behavior); a malformed VARBENCH_SHARD
  /// throws from ShardSpec::parse, same as before.
  [[nodiscard]] static BenchSpec from_env();

  /// The process-wide instance every bench entry point shares — the
  /// "parsed once" guarantee.
  [[nodiscard]] static const BenchSpec& env();

  /// Execution context of the harness's Monte-Carlo loops. Results are
  /// invariant to it (docs/determinism.md).
  [[nodiscard]] exec::ExecContext context() const {
    return exec::ExecContext{threads};
  }

  /// The scale a print-only harness should report: FULL wins, then SCALE
  /// (validated into (0, 1]), then `fallback`.
  [[nodiscard]] double effective_scale(double fallback) const {
    if (full) return 1.0;
    if (scale.has_value() && *scale > 0.0 && *scale <= 1.0) return *scale;
    return fallback;
  }
};

inline BenchSpec BenchSpec::from_env() {
  BenchSpec spec;
  const auto get = [](const char* name) -> const char* {
    const char* v = std::getenv(name);
    return (v != nullptr && *v != '\0') ? v : nullptr;
  };
  if (const char* v = get("VARBENCH_SCALE")) {
    const double parsed = std::atof(v);
    if (parsed > 0.0) spec.scale = parsed;
  }
  if (const char* v = get("VARBENCH_REPS")) {
    const long parsed = std::atol(v);
    if (parsed > 0) spec.reps = static_cast<std::size_t>(parsed);
  }
  if (const char* v = get("VARBENCH_SEED")) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0' && errno != ERANGE) spec.seed = parsed;
  }
  if (const char* v = get("VARBENCH_THREADS")) {
    const long parsed = std::atol(v);
    if (parsed > 0) spec.threads = static_cast<std::size_t>(parsed);
  }
  if (const char* v = get("VARBENCH_FULL")) {
    spec.full = std::string{v} != "0";
  }
  if (const char* v = get("VARBENCH_SHARD")) {
    spec.shard = study::ShardSpec::parse(v);
  }
  if (const char* v = get("VARBENCH_OUT")) spec.out_dir = v;
  return spec;
}

inline const BenchSpec& BenchSpec::env() {
  static const BenchSpec spec = from_env();
  return spec;
}

}  // namespace varbench::benchutil
