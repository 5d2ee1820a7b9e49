#include "bench/gate.h"

#include <cmath>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench/microbench.h"
#include "bench/trajectory.h"
#include "src/version.h"

namespace varbench::benchutil {

namespace fs = std::filesystem;

namespace {

TrajectoryRow to_row(const MicrobenchResult& r, const GateOptions& opts) {
  TrajectoryRow row;
  row.bench = r.bench;
  row.unit = r.unit;
  row.min_ns = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(r.min_ns) * opts.inject_slowdown));
  row.repeats = r.repeats;
  row.version = std::string{kVersion};
  row.label = opts.label;
  return row;
}

/// Gate + append one trajectory file. Returns true when any row regressed.
bool process_file(const std::string& path,
                  const std::vector<MicrobenchResult>& results,
                  const GateOptions& opts, std::FILE* out) {
  std::vector<TrajectoryRow> fresh;
  fresh.reserve(results.size());
  for (const MicrobenchResult& r : results) fresh.push_back(to_row(r, opts));

  Trajectory trajectory = Trajectory::load(path);
  const std::vector<GateCheck> checks =
      gate_checks(trajectory, fresh, opts.threshold);

  bool regressed = false;
  for (const GateCheck& c : checks) {
    const char* status = c.regressed ? "REGRESSED" : (c.best_ns == 0 ? "new" : "ok");
    regressed = regressed || c.regressed;
    std::fprintf(out, "| %s | %s | %llu | %llu | %.2f | %s |\n",
                 c.row.bench.c_str(), c.row.unit.c_str(),
                 static_cast<unsigned long long>(c.row.min_ns),
                 static_cast<unsigned long long>(c.best_ns), c.ratio, status);
  }

  if (opts.append) {
    for (const TrajectoryRow& row : fresh) trajectory.append(row);
    trajectory.save(path);
    std::fprintf(out, "\nrecorded %zu row(s) in %s\n\n", fresh.size(),
                 path.c_str());
  }
  return regressed;
}

/// Rejects an out-of-range option before any suite runs. A NaN compares
/// false against everything, so an unchecked NaN threshold would pass
/// every row.
void require_option(bool ok, const char* flag, double value,
                    const char* wanted) {
  if (ok) return;
  char got[32];
  std::snprintf(got, sizeof got, "%g", value);
  throw std::invalid_argument{std::string{"--"} + flag + " expects " +
                              wanted + ", got " + got};
}

}  // namespace

int run_bench_gate(const GateOptions& opts, std::FILE* out) {
  require_option(std::isfinite(opts.threshold) && opts.threshold >= 1.0,
                 "threshold", opts.threshold, "a finite number >= 1");
  require_option(std::isfinite(opts.scale) && opts.scale > 0.0, "scale",
                 opts.scale, "a finite number > 0");
  require_option(
      std::isfinite(opts.inject_slowdown) && opts.inject_slowdown > 0.0,
      "inject-slowdown", opts.inject_slowdown, "a finite number > 0");
  MicrobenchOptions mopts;
  mopts.repeats = opts.repeats;
  mopts.scale = opts.scale;
  mopts.threads = opts.threads;
  const std::string scratch = opts.scratch_dir.empty()
                                  ? fs::temp_directory_path().string()
                                  : opts.scratch_dir;

  std::fprintf(out,
               "## varbench bench — perf trajectory (min of %zu, threshold "
               "%.2fx vs best)\n\n",
               opts.repeats, opts.threshold);
  if (opts.inject_slowdown != 1.0) {
    std::fprintf(out, "injected slowdown: %.2fx (gate self-test)\n\n",
                 opts.inject_slowdown);
  }
  std::fprintf(out, "| bench | unit | min_ns | best_ns | ratio | status |\n");
  std::fprintf(out, "|---|---|---|---|---|---|\n");

  bool regressed = false;
  try {
    if (opts.append) fs::create_directories(opts.bench_dir);
    // Every suite runs, in this order, before any trajectory is read.
    const std::pair<const char*, std::vector<MicrobenchResult>> suites[] = {
        {"BENCH_exec.json", run_exec_microbenches(mopts)},
        {"BENCH_campaign.json", run_campaign_microbenches(mopts, scratch)},
        {"BENCH_stats.json", run_stats_microbenches(mopts)},
        {"BENCH_ml.json", run_ml_microbenches(mopts)},
        {"BENCH_artifact_io.json", run_io_microbenches(mopts, scratch)},
    };
    for (const auto& [file, results] : suites) {
      regressed |= process_file((fs::path{opts.bench_dir} / file).string(),
                                results, opts, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(out, "\nbench gate error: %s\n", e.what());
    return 1;
  }

  if (regressed) {
    std::fprintf(out,
                 "\nGATE: regression beyond %.2fx noise band — investigate or "
                 "re-record the trajectory\n",
                 opts.threshold);
    return opts.gate ? 1 : 0;
  }
  std::fprintf(out, "gate: all benches within the noise band\n");
  return 0;
}

}  // namespace varbench::benchutil
