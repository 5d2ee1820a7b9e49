// The one clock site of the instrumentation layer. varlint's no-wallclock
// rule whitelists exactly this file under src/ (besides src/campaign/), so
// every instrumented subsystem — and the registry, sink, and trace-file
// code next to this header — gets time only through the helpers below
// (docs/static_analysis.md). The enabled check happens BEFORE any clock
// read, keeping the disabled path free of syscalls.
//
// Timings are provenance, never identity: nothing here may flow into
// canonical_text() bytes (docs/determinism.md).
#pragma once

#include <chrono>
#include <cstdint>

#include "src/metrics/metrics.h"

namespace varbench::metrics {

/// Nanoseconds on the monotonic clock. Only meaningful as a difference
/// within one process — the trace stitcher normalizes per-process
/// timelines.
[[nodiscard]] inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Manual start/stop timer for code that can't use RAII scoping.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_ns()) {}

  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return monotonic_ns() - start_ns_;
  }

 private:
  std::uint64_t start_ns_;
};

/// Times the enclosing scope as one `span` event with `ident` and, when a
/// `timer` is given, one observation of that timer. The clock is read only
/// when either entry is enabled, and once for both, so a disabled guard
/// costs one branch per entry in the constructor and one in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Sink& sink, MetricId span, std::uint64_t ident,
             MetricId timer = kNoMetric)
      : sink_(sink),
        span_(span),
        timer_(timer),
        ident_(ident),
        start_ns_(sink.is_enabled(span) || sink.is_enabled(timer)
                      ? monotonic_ns()
                      : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (start_ns_ == 0) return;
    const std::uint64_t dur_ns = monotonic_ns() - start_ns_;
    sink_.emit(span_, ident_, start_ns_, dur_ns);
    sink_.observe(timer_, dur_ns);
  }

 private:
  Sink& sink_;
  MetricId span_;
  MetricId timer_;
  std::uint64_t ident_;
  std::uint64_t start_ns_;
};

/// Record a point event. One branch when disabled.
inline void instant(Sink& sink, MetricId id, std::uint64_t ident) {
  if (!sink.is_enabled(id)) return;
  sink.emit(id, ident, monotonic_ns(), 0);
}

/// Manual begin/end pair for spans that cannot use RAII scoping (the
/// campaign coordinator opens a task's span at launch and closes it at
/// reap, across loop iterations). span_begin returns 0 when the span is
/// disabled; span_end is then a no-op.
[[nodiscard]] inline std::uint64_t span_begin(Sink& sink, MetricId id) {
  return sink.is_enabled(id) ? monotonic_ns() : 0;
}

inline void span_end(Sink& sink, MetricId id, std::uint64_t ident,
                     std::uint64_t begin_ns) {
  if (begin_ns == 0) return;
  sink.emit(id, ident, begin_ns, monotonic_ns() - begin_ns);
}

}  // namespace varbench::metrics
