// Perf trajectory files + the CI regression gate (ROADMAP item 3: make
// "makes a hot path measurably faster" enforceable, not anecdotal).
//
// A trajectory file (bench/BENCH_*.json, one per microbench suite)
// is an append-only log of min-of-N microbench timings:
//   {"schema": "varbench.bench_trajectory.v1",
//    "rows": [{"bench", "unit", "min_ns", "repeats", "version", "label"}]}
// Each `varbench bench` run appends one row per microbench. The gate compares the fresh min-of-N against the BEST prior
// min for the same bench name: min-of-N already strips scheduler noise,
// and comparing against the historical best means a slow machine can only
// add new (higher) rows, never loosen the baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace varbench::benchutil {

struct TrajectoryRow {
  std::string bench;   // "exec.parallel_for", "campaign.ticket_cycle", ...
  std::string unit;    // what min_ns measures, e.g. "ns/task"
  std::uint64_t min_ns = 0;   // min over `repeats` runs
  std::uint64_t repeats = 0;
  std::string version;  // kVersion at record time
  std::string label;    // free-form context ("ci", "local", scale=...)
};

class Trajectory {
 public:
  /// Parse `path`; a missing file is an empty trajectory (first run), any
  /// other failure (malformed JSON, wrong schema) is an io::JsonError
  /// naming the path.
  [[nodiscard]] static Trajectory load(const std::string& path);

  void append(const TrajectoryRow& row) { rows_.push_back(row); }

  /// Canonical serialization (schema + rows, insertion order).
  [[nodiscard]] std::string to_json_text() const;
  /// Replaces `path` atomically (temp file + rename): an interrupted save
  /// leaves the previous trajectory, never an empty or truncated one.
  void save(const std::string& path) const;

  [[nodiscard]] const std::vector<TrajectoryRow>& rows() const {
    return rows_;
  }

  /// Best (minimum) prior min_ns for `bench`; 0 when the bench has no
  /// history yet (first runs always pass the gate).
  [[nodiscard]] std::uint64_t best_ns(const std::string& bench) const;

 private:
  std::vector<TrajectoryRow> rows_;
};

/// One gate verdict per fresh row.
struct GateCheck {
  TrajectoryRow row;
  std::uint64_t best_ns = 0;  // historical best (0 = no history)
  double ratio = 1.0;         // row.min_ns / best_ns (1.0 when no history)
  bool regressed = false;
};

/// Compare fresh rows against `prior`. A row regresses when its min-of-N
/// exceeds the historical best by more than `threshold` (default 1.5×, the
/// noise band for min-of-N on shared CI runners) AND by at least
/// `min_abs_ns` (microsecond-scale filesystem/scheduler jitter on
/// trivially fast benches is not a regression — a real hot-path slowdown
/// moves tens of microseconds).
[[nodiscard]] std::vector<GateCheck> gate_checks(
    const Trajectory& prior, const std::vector<TrajectoryRow>& fresh,
    double threshold = 1.5, std::uint64_t min_abs_ns = 5'000);

}  // namespace varbench::benchutil
