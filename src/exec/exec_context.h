// Execution context threaded through every Monte-Carlo hot path.
//
// varbench's parallelism contract (see docs/determinism.md): results are
// bit-identical regardless of `num_threads`, because randomized work items
// never share an RNG stream — each task index derives its own child stream
// from a (master seed, tag, index) triple. The ExecContext only decides how
// the index space is scheduled onto threads, never what each index computes.
#pragma once

#include <cstddef>
#include <thread>

#include "src/metrics/metrics.h"

namespace varbench::exec {

struct ExecContext {
  /// 0 → use std::thread::hardware_concurrency(); 1 → run inline (serial);
  /// N → up to N OS threads per parallel region.
  std::size_t num_threads = 1;

  /// Optional instrumentation sink for metrics and spans (docs/metrics.md).
  /// nullptr — the default, so every existing `ExecContext{n}` call site is
  /// source-compatible — resolves to the process-wide
  /// metrics::global_sink(), which is all-disabled unless a CLI flag or
  /// test enabled it. Instrumentation is pure provenance: enabling it never
  /// changes result bytes (docs/determinism.md).
  metrics::Sink* metrics = nullptr;

  /// The sink instrumented code records into (never null).
  [[nodiscard]] metrics::Sink& sink() const {
    return metrics != nullptr ? *metrics : metrics::global_sink();
  }

  /// The actual worker count to schedule with (never 0).
  [[nodiscard]] std::size_t resolved_threads() const {
    if (num_threads != 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }

  [[nodiscard]] bool is_serial() const { return resolved_threads() <= 1; }

  /// Inline execution with the default sink — the entry point of callers
  /// that have no context of their own.
  [[nodiscard]] static ExecContext serial() { return ExecContext{1}; }

  /// This context run inline, recording into the same sink — what nested
  /// regions use when an outer region already owns the hardware (avoids
  /// oversubscription without dropping the caller's instrumentation).
  [[nodiscard]] ExecContext inline_view() const {
    ExecContext nested = *this;
    nested.num_threads = 1;
    return nested;
  }

  friend bool operator==(const ExecContext&, const ExecContext&) = default;
};

}  // namespace varbench::exec
