// The typed form of the shared bench/ environment knobs. Every shared
// VARBENCH_* knob is parsed exactly once — into a BenchSpec — instead of
// each harness re-reading getenv mid-run; `varbench bench` takes its
// defaults from the same struct, so harnesses driven either way see one
// uniform configuration surface.
//
// Knobs (all optional; `std::nullopt` means "keep the harness default"):
//   VARBENCH_SCALE    data-pool / epoch scale in (0, 1]
//   VARBENCH_REPS     repetitions
//   VARBENCH_THREADS  worker count (0 = all cores; bit-identical anyway)
#pragma once

#include <cstdlib>
#include <optional>

namespace varbench::benchutil {

struct BenchSpec {
  std::optional<double> scale;      // VARBENCH_SCALE
  std::optional<std::size_t> reps;  // VARBENCH_REPS
  std::size_t threads = 0;          // VARBENCH_THREADS

  /// Parse the environment once. Malformed or non-positive values fall
  /// back to "unset".
  [[nodiscard]] static BenchSpec from_env();

  /// The process-wide instance every bench entry point shares — the
  /// "parsed once" guarantee.
  [[nodiscard]] static const BenchSpec& env();
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
  if (const char* v = get("VARBENCH_THREADS")) {
    const long parsed = std::atol(v);
    if (parsed > 0) spec.threads = static_cast<std::size_t>(parsed);
  }
  return spec;
}

inline const BenchSpec& BenchSpec::env() {
  static const BenchSpec spec = from_env();
  return spec;
}

}  // namespace varbench::benchutil
