// Campaign coordinator: fan a list of StudySpecs out as shard tasks over a
// pool of workers, retry failures up to a bound, merge completed studies
// incrementally, and leave a resumable state directory behind.
//
// The scheduling logic is process-agnostic: workers are launched through
// the WorkerLauncher abstraction, so tests (and embedders) drive the whole
// coordinator in-process while `varbench campaign` plugs in
// subprocess_launcher() to spawn `varbench run` children. Determinism
// argument: every task is an ordinary shard run — per-repetition RNG
// streams keyed by the global repetition index — so whatever order, worker
// count, retry history, or machine the shards land from, the merged
// artifact is byte-identical to the unsharded run (docs/campaigns.md).
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::metrics {
class Sink;
}  // namespace varbench::metrics

namespace varbench::campaign {

/// One schedulable unit: study `study_index` restricted to `spec.shard`.
struct CampaignTask {
  std::string id;  // "s<study>-<i>of<N>": file-name-safe, claimed in plan order
  std::size_t study_index = 0;
  study::StudySpec spec;
};

/// A started worker. Between passes the coordinator sleeps until some
/// worker's exit_fd() polls readable or a 25 ms idle period ends, then asks
/// each worker running(): a worker with a descriptor is reaped the moment
/// it exits, one without is seen when the period ends.
class WorkerHandle {
 public:
  virtual ~WorkerHandle() = default;
  virtual bool running() = 0;
  /// Valid once running() is false: 0 = success, anything else = failure.
  virtual int exit_code() = 0;
  /// Forcibly terminate a still-running worker (task_timeout enforcement).
  /// running() must eventually turn false after this. Default: no-op, for
  /// launchers that finish synchronously.
  virtual void kill() {}
  /// A descriptor that polls readable once the worker has exited, owned by
  /// the handle; -1 (the default) when there is none.
  [[nodiscard]] virtual int exit_fd() const { return -1; }
};

/// Start work on `task` (its spec is serialized at `spec_path`), writing
/// the shard artifact to `artifact_path` on success and diagnostics to
/// `log_path`. A non-empty `trace_path` asks for the worker's span trace
/// there; the coordinator passes one exactly when CampaignConfig::trace is
/// set. Must not throw for ordinary worker failures — report those through
/// the handle's exit code.
using WorkerLauncher = std::function<std::unique_ptr<WorkerHandle>(
    const CampaignTask& task, const std::string& spec_path,
    const std::string& artifact_path, const std::string& log_path,
    const std::string& trace_path)>;

struct CampaignConfig {
  std::string dir;          // state directory (created if missing)
  std::size_t shards = 1;   // shards per study (hpo studies always get 1)
  std::size_t workers = 1;  // max concurrently running workers
  std::size_t max_retries = 2;  // re-launches allowed after the first attempt
  std::chrono::milliseconds stale_after{60'000};  // claim heartbeat timeout
  /// Kill a worker still running after this long and count the launch as a
  /// failed attempt — a hung (not crashed) worker must not stall the
  /// campaign forever. 0 disables the limit.
  std::chrono::milliseconds task_timeout{0};
  bool resume = false;       // required to reuse an initialized state dir
  std::FILE* events = nullptr;  // progress lines (CLI: stderr); null = quiet
  /// Format new shard artifacts and merged outputs are written in (kAuto
  /// behaves as kJson). Resuming in a different format than the state dir
  /// was run with is fine: valid shards of either format are reused, and
  /// merge reads mixed .json/.vbt sets.
  study::ArtifactFormat format = study::ArtifactFormat::kJson;
  /// Optional instrumentation sink (docs/metrics.md) for the coordinator's
  /// metrics — claim-to-start latency, retry counts, heartbeat jitter — and
  /// its task-lifecycle spans. When any campaign metric is enabled, the
  /// merged totals are emitted into campaign.json as a "metrics"
  /// provenance block next to the per-task wall_time_ms. nullptr sends
  /// metrics to metrics::global_sink() but spans to a run-local sink,
  /// deliberately NOT the global one: in_process_launcher() drains the
  /// global sink's spans into each task's worker trace file, which must not
  /// swallow coordinator spans.
  metrics::Sink* metrics = nullptr;
  /// Record task-lifecycle spans (queued → claimed → running →
  /// promoted/retried, study merges) and flush them to
  /// `<dir>/traces/coordinator.trace.json` at the end of the run; each
  /// launch gets its worker trace path (WorkQueue::trace_path). Traces are
  /// provenance only: artifacts stay byte-identical with tracing on
  /// (pinned by tests/test_trace.cpp).
  bool trace = false;
};

struct CampaignReport {
  std::size_t tasks = 0;
  std::size_t completed = 0;
  std::size_t launched = 0;         // worker launches, including retries
  std::size_t reused = 0;           // tasks satisfied by existing artifacts
  std::size_t retried = 0;
  std::size_t reclaimed_stale = 0;
  std::vector<std::string> merged_outputs;  // merged artifact paths
  std::vector<std::string> failures;        // "task <id>: <why>"

  [[nodiscard]] bool ok() const {
    return failures.empty() && completed == tasks;
  }
};

/// Split every study into its shard tasks ("s<k>-<i>of<N>"). Studies whose
/// kind cannot shard (hpo) get exactly one task. Throws on empty input.
[[nodiscard]] std::vector<CampaignTask> plan_tasks(
    const std::vector<study::StudySpec>& studies, std::size_t shards);

/// Drive the campaign to completion (or bounded failure): initialize or
/// resume the state directory, schedule shard tasks through the work queue,
/// launch up to `workers` workers at a time, validate + retry, and merge
/// each study as its last shard lands. Throws io::JsonError on a state
/// directory that cannot be (re)used; per-task failures land in the report.
[[nodiscard]] CampaignReport run_campaign(
    const CampaignConfig& config, const std::vector<study::StudySpec>& studies,
    const WorkerLauncher& launcher);

/// Launcher that spawns `<varbench_binary> run <spec> --out <artifact>`,
/// plus `--trace-out <trace_path>` when the launch has a trace path.
[[nodiscard]] WorkerLauncher subprocess_launcher(std::string varbench_binary);

/// Launcher that calls study::run_study() in this process (synchronously).
/// The coordinator-under-test path, and the embedder path when process
/// isolation is not wanted. A launch with a trace path runs with every
/// span of the process-global sink enabled (its events drained before, and
/// to the trace path after; metric cells are untouched) — the in-process
/// analogue of a worker subprocess's own trace.
[[nodiscard]] WorkerLauncher in_process_launcher();

}  // namespace varbench::campaign
