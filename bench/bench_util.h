// Shared helpers for the standalone bench harnesses (bench_exec_scaling,
// bench_stats_resample, bench_artifact_io): bespoke environment knobs and
// the printed header/section banners. Every figure and table of the paper
// runs through `varbench run`/`campaign` instead (docs/study_api.md).
#pragma once

#include <cstdio>
#include <cstdlib>

#include "bench/bench_spec.h"

namespace varbench::benchutil {

/// A positive integer knob; unset, empty, or non-positive → `fallback`.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::atol(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

inline void header(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline void section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

}  // namespace varbench::benchutil
