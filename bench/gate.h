// The driver behind `varbench bench [--gate]`: run the instrumented
// microbench suites, print a markdown trajectory table (terminal-readable,
// and exactly what CI pipes into its step summary), append min-of-N rows
// to bench/BENCH_exec.json / bench/BENCH_campaign.json /
// bench/BENCH_stats.json / bench/BENCH_ml.json /
// bench/BENCH_artifact_io.json, and — in gate mode — fail on regressions
// beyond the noise band (bench/trajectory.h).
#pragma once

#include <cstdio>
#include <string>

namespace varbench::benchutil {

struct GateOptions {
  std::string bench_dir = "bench";  // holds the BENCH_*.json trajectories
  double threshold = 1.5;           // regression band vs historical best
  std::size_t repeats = 5;          // min-of-N
  double scale = 1.0;
  std::size_t threads = 0;          // exec fan-out; 0 = hardware
  bool gate = false;                // nonzero exit on regression
  bool append = true;               // record fresh rows into the trajectory
  std::string label;                // trajectory row context ("ci", "local")
  /// Multiply fresh timings before the gate compare — CI's self-test
  /// injects 2.0 here and asserts the gate fails.
  double inject_slowdown = 1.0;
  std::string scratch_dir;  // work-queue and artifact scratch; "" = system temp
};

/// Returns the process exit code: 0, or 1 when gate mode found a
/// regression (or a trajectory file was unreadable). Throws
/// std::invalid_argument naming the flag, before any suite runs, when
/// `threshold` is not finite and >= 1 or `scale` / `inject_slowdown` is
/// not finite and > 0.
int run_bench_gate(const GateOptions& opts, std::FILE* out);

}  // namespace varbench::benchutil
