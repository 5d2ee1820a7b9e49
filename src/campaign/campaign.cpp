#include "src/campaign/campaign.h"

#include <cstdarg>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/io/json.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/metrics/trace_file.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_kinds.h"
#include "src/study/study_runner.h"

namespace varbench::campaign {

namespace fs = std::filesystem;

namespace {

/// The longest the reap loop sleeps between passes, and the heartbeat
/// period of a held claim. A worker with an exit descriptor wakes the loop
/// the moment it exits; stale-claim sweeps, foreign-artifact adoption,
/// --task-timeout-ms checks and workers without a descriptor are served
/// at least once per period.
constexpr std::chrono::milliseconds kIdlePeriod{25};

void event(const CampaignConfig& cfg, const char* fmt, ...) {
  if (cfg.events == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(cfg.events, fmt, args);
  va_end(args);
  std::fputc('\n', cfg.events);
  std::fflush(cfg.events);
}

// ------------------------------------------------------------- manifest

/// The coordinator metrics that ride along in campaign.json as provenance
/// (identity lives in the artifacts, not here): merged deterministically
/// from the sink's slots, present only when some campaign metric is
/// enabled.
std::optional<io::Json> campaign_metrics(const metrics::Sink& sink) {
  const metrics::Snapshot snap = sink.snapshot();
  io::Json block = io::Json::object();
  for (const metrics::MetricSnapshot& m : snap.metrics) {
    const metrics::MetricDef& def = metrics::kMetricDefs[m.id];
    if (def.subsystem != "campaign") continue;
    io::Json entry = io::Json::object();
    entry.set("count", io::Json{m.count});
    entry.set("sum", io::Json{m.sum});
    entry.set("mean", io::Json{m.mean()});
    if (def.kind != metrics::MetricKind::kCounter) {
      entry.set("p50", io::Json{m.percentile_upper(0.50)});
      entry.set("p90", io::Json{m.percentile_upper(0.90)});
      entry.set("p99", io::Json{m.percentile_upper(0.99)});
    }
    block.set(std::string{def.name}, std::move(entry));
  }
  if (block.as_object().empty()) return std::nullopt;
  return block;
}

/// An existing manifest must describe this exact campaign — resuming with a
/// different spec list or shard count would mix incompatible artifacts.
void check_resumable(const Manifest& prior,
                     const std::vector<study::StudySpec>& studies,
                     std::size_t shards) {
  if (prior.shards != shards) {
    throw io::JsonError(
        "campaign: state dir was initialized with --shards " +
        std::to_string(prior.shards) + " but this invocation asks for " +
        std::to_string(shards) + " — shard counts cannot change mid-campaign");
  }
  if (prior.studies.size() != studies.size()) {
    throw io::JsonError("campaign: state dir holds " +
                        std::to_string(prior.studies.size()) +
                        " studies but the spec file lists " +
                        std::to_string(studies.size()) +
                        " — resume with the original spec file");
  }
  for (std::size_t k = 0; k < studies.size(); ++k) {
    if (study::StudySpec::from_json(prior.studies[k]) != studies[k]) {
      throw io::JsonError(
          "campaign: study " + std::to_string(k) +
          " differs from the one this state dir was initialized with — "
          "resume with the original spec file or use a fresh --dir");
    }
  }
}

// ------------------------------------------------------------ validation

/// Empty string when the artifact at `path` is exactly `task`'s shard of
/// `task`'s study; an actionable reason otherwise. On success `wall_ms`
/// (when given) receives the artifact's wall-time provenance (0 when the
/// artifact carries none).
std::string validate_artifact(const std::string& path,
                              const CampaignTask& task,
                              double* wall_ms = nullptr) {
  study::ResultTable table;
  try {
    table = study::ResultTable::load(path);  // JSON or binary, by content
  } catch (const std::exception& e) {
    return std::string{"unreadable artifact: "} + e.what();
  }
  if (table.shard != task.spec.shard) {
    return "artifact holds shard " + table.shard.label() +
           " but the task is shard " + task.spec.shard.label() +
           " (duplicate or misplaced shard artifact)";
  }
  study::StudySpec expected = task.spec;  // execution-normal form
  expected.shard = study::ShardSpec{};
  expected.threads = 1;
  if (!table.spec.has_value() || !(*table.spec == expected) ||
      table.seed != task.spec.seed) {
    return "artifact was produced by a different study spec (seed/params "
           "mismatch)";
  }
  if (wall_ms != nullptr) *wall_ms = table.wall_time_ms;
  return {};
}

/// merged/s<k>-<kind>-<case>.<ext> — predictable without loading artifacts.
std::string merged_output_path(const WorkQueue& queue, std::size_t study_index,
                               const study::StudySpec& spec,
                               std::string_view ext) {
  return (fs::path{queue.merged_dir()} /
          ("s" + std::to_string(study_index) + "-" +
           std::string{study::to_string(spec.kind)} + "-" + spec.case_study +
           std::string{ext}))
      .string();
}

class CompletedHandle : public WorkerHandle {
 public:
  explicit CompletedHandle(int code) : code_{code} {}
  bool running() override { return false; }
  int exit_code() override { return code_; }

 private:
  int code_;
};

}  // namespace

// ----------------------------------------------------------------- plan

std::vector<CampaignTask> plan_tasks(
    const std::vector<study::StudySpec>& studies, std::size_t shards) {
  if (studies.empty()) {
    throw std::invalid_argument("campaign: no studies to run");
  }
  if (shards == 0) {
    throw std::invalid_argument("campaign: --shards must be >= 1");
  }
  std::vector<CampaignTask> tasks;
  for (std::size_t k = 0; k < studies.size(); ++k) {
    // A kind that cannot shard (one HOpt run is inherently sequential) is
    // a single task regardless of --shards.
    const std::size_t n =
        study::kind_def(studies[k].kind).shardable ? shards : 1;
    for (std::size_t i = 0; i < n; ++i) {
      CampaignTask t;
      t.study_index = k;
      t.spec = studies[k];
      t.spec.shard = study::ShardSpec{i, n};
      t.id = "s" + std::to_string(k) + "-" + std::to_string(i) + "of" +
             std::to_string(n);
      tasks.push_back(std::move(t));
    }
  }
  return tasks;
}

// ------------------------------------------------------------ coordinator

CampaignReport run_campaign(const CampaignConfig& cfg,
                            const std::vector<study::StudySpec>& studies,
                            const WorkerLauncher& launcher) {
  if (cfg.workers == 0) {
    throw std::invalid_argument("campaign: --workers must be >= 1");
  }
  if (cfg.dir.empty()) {
    throw std::invalid_argument("campaign: state directory must be given");
  }
  const bool binary = cfg.format == study::ArtifactFormat::kBinary;
  const std::string ext = binary ? ".vbt" : ".json";
  WorkQueue queue{cfg.dir, ext};
  // Metrics default to the process-global sink; lifecycle spans to a
  // run-local one, which in_process_launcher()'s per-task drains of the
  // global sink cannot reach (see CampaignConfig::metrics). Every span is
  // one disabled branch unless cfg.trace turns the campaign spans on.
  metrics::Sink& sink =
      cfg.metrics != nullptr ? *cfg.metrics : metrics::global_sink();
  metrics::Sink local_spans;
  metrics::Sink& spans = cfg.metrics != nullptr ? *cfg.metrics : local_spans;
  if (cfg.trace) {
    metrics::enable_selection(spans, "campaign", metrics::Entries::kSpans);
  }
  // Lifecycle instants carry the task-id hash as their identity-derived
  // ident, with the readable id attached as a label.
  const auto task_event = [&spans](metrics::MetricId id,
                                   const std::string& task_id) {
    if (!spans.is_enabled(id)) return;
    const std::uint64_t ident = rngx::hash_tag(task_id);
    spans.set_label(ident, task_id);
    metrics::instant(spans, id, ident);
  };
  const auto tasks = plan_tasks(studies, cfg.shards);

  CampaignReport report;
  report.tasks = tasks.size();

  // The coordinator's task states are the manifest's records, index-aligned
  // with `tasks`; every change is persisted with save_manifest().
  Manifest manifest;
  manifest.shards = cfg.shards;
  manifest.max_retries = cfg.max_retries;
  for (const auto& s : studies) manifest.studies.push_back(s.to_json());
  for (const auto& t : tasks) {
    manifest.tasks.push_back(
        TaskRecord{t.id, t.study_index, t.spec.shard.label()});
  }
  const auto save_manifest = [&] {
    manifest.metrics = campaign_metrics(sink);
    write_manifest(queue.manifest_path(), manifest);
  };
  if (fs::exists(queue.manifest_path())) {
    if (!cfg.resume) {
      throw io::JsonError(
          "campaign: '" + cfg.dir + "' already holds a campaign — pass "
          "--resume to finish its gaps, or point --dir at a fresh directory");
    }
    // Wall times and attempts a previous coordinator recorded survive
    // --resume: they are the provenance and retry history of reused
    // artifacts that carry none themselves (the promote path records
    // coordinator-measured time for exactly those). A task that runs again
    // is claimed afresh and counts its attempts from its new ticket.
    const Manifest prior = read_manifest(queue.manifest_path());
    check_resumable(prior, studies, cfg.shards);
    for (std::size_t i = 0; i < tasks.size() && i < prior.tasks.size(); ++i) {
      if (prior.tasks[i].id == tasks[i].id) {
        manifest.tasks[i].wall_time_ms = prior.tasks[i].wall_time_ms;
        manifest.tasks[i].attempts = prior.tasks[i].attempts;
      }
    }
  }
  std::vector<bool> completed_this_run(tasks.size(), false);

  const std::string owner =
      "coordinator-" + std::to_string(current_process_id());

  // A valid artifact already on disk completes task i without a launch: at
  // start-up (an earlier run's) and while running (a foreign coordinator's).
  // Returns whether it was adopted; `invalid` receives why an existing
  // artifact was not.
  const auto adopt_artifact = [&](std::size_t i, std::string& invalid) {
    // Probe both formats: a --format change between runs must not redo
    // (or worse, mistrust) shards that already landed the other way.
    const std::string path = queue.existing_artifact_path(tasks[i].id);
    if (!fs::exists(path)) return false;
    double wall_ms = 0.0;
    invalid = validate_artifact(path, tasks[i], &wall_ms);
    if (!invalid.empty()) return false;
    TaskRecord& rec = manifest.tasks[i];
    rec.status = TaskStatus::kDone;
    if (wall_ms > 0.0) rec.wall_time_ms = wall_ms;
    return true;
  };

  // Initialization doubles as gap analysis on resume: a task with a valid
  // artifact is done, everything else (re)enters the queue.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::string& id = tasks[i].id;
    if (!fs::exists(queue.spec_path(id))) {
      io::write_file_atomic(queue.spec_path(id), tasks[i].spec.to_json_text());
    }
    std::string invalid;
    if (adopt_artifact(i, invalid)) {
      ++report.reused;
      event(cfg, "task %s: reusing existing artifact", id.c_str());
    } else if (!invalid.empty()) {
      std::error_code ec;
      fs::remove(queue.existing_artifact_path(id), ec);
      event(cfg, "task %s: discarding invalid artifact (%s)", id.c_str(),
            invalid.c_str());
    }
    if (manifest.tasks[i].status == TaskStatus::kPending &&
        !queue.is_queued(id) && !queue.is_claimed(id)) {
      queue.enqueue(Ticket{id, 0, ""});
      task_event(metrics::kCampaignTaskQueued, id);
    }
  }
  save_manifest();

  // Per-study incremental merge: fires the moment a study's last shard
  // lands (while other studies may still be running), and regenerates a
  // missing or superseded merged file on resume.
  std::vector<bool> study_merged(studies.size(), false);
  const auto maybe_merge_study = [&](std::size_t k) {
    if (study_merged[k]) return;
    bool fresh = false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].study_index != k) continue;
      if (manifest.tasks[i].status != TaskStatus::kDone) return;  // incomplete
      fresh = fresh || completed_this_run[i];
    }
    const std::string out = merged_output_path(queue, k, studies[k], ext);
    if (!fresh && fs::exists(out)) {
      study_merged[k] = true;
      report.merged_outputs.push_back(out);
      return;
    }
    const metrics::ScopedSpan merge_span{spans, metrics::kCampaignStudyMerged,
                                         static_cast<std::uint64_t>(k)};
    try {
      std::vector<std::string> shard_paths;
      for (const auto& t : tasks) {
        if (t.study_index != k) continue;
        shard_paths.push_back(queue.existing_artifact_path(t.id));
      }
      const std::size_t count = shard_paths.size();
      // Shards may be a mix of formats after a --format change; load
      // dispatches per file (VBT shards stay mapped until the merge has
      // gathered their columns).
      std::vector<study::ResultTable> shards;
      shards.reserve(count);
      for (const std::string& p : shard_paths) {
        shards.push_back(study::ResultTable::load(p));
      }
      const auto merged = study::merge_result_tables(std::move(shards));
      // Identity-only bytes either way, so merged outputs stay
      // byte-comparable across runs, worker counts, and formats.
      merged.save(out,
                  binary ? study::ArtifactFormat::kBinary
                         : study::ArtifactFormat::kJson,
                  /*include_provenance=*/false);
      // After a --format change, drop the superseded other-format merged
      // file — a directory report must see each study exactly once.
      std::error_code sibling_ec;
      fs::remove(merged_output_path(queue, k, studies[k],
                                    binary ? ".json" : ".vbt"),
                 sibling_ec);
      event(cfg, "study %zu: merged %zu shard(s) -> %s", k, count,
            out.c_str());
      report.merged_outputs.push_back(out);
    } catch (const std::exception& e) {
      report.failures.push_back("study " + std::to_string(k) +
                                ": merge failed: " + e.what());
    }
    study_merged[k] = true;
  };

  struct Active {
    Ticket ticket;
    std::size_t task_index;
    std::unique_ptr<WorkerHandle> handle;
    std::chrono::steady_clock::time_point started;
    std::chrono::steady_clock::time_point last_beat;
    /// metrics::span_begin of the campaign.task_running span; 0 = disabled.
    std::uint64_t trace_begin = 0;
  };
  std::vector<Active> active;

  const auto task_index_of = [&](const std::string& id) -> std::size_t {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].id == id) return i;
    }
    return tasks.size();
  };
  const auto pending_count = [&] {
    std::size_t n = 0;
    for (const TaskRecord& rec : manifest.tasks) {
      if (rec.status == TaskStatus::kPending) ++n;
    }
    return n;
  };

  while (pending_count() > 0 || !active.empty()) {
    bool progressed = false;

    // 1. Reap finished workers: validate + promote the artifact, or retry.
    //    A worker past task_timeout is killed and reaped as a failure —
    //    staleness only covers *other* coordinators' claims, so a hung
    //    worker of our own needs this bound to not stall the campaign.
    for (auto it = active.begin(); it != active.end();) {
      bool timed_out = false;
      if (it->handle->running()) {
        if (cfg.task_timeout.count() > 0 &&
            std::chrono::steady_clock::now() - it->started >
                cfg.task_timeout) {
          timed_out = true;
          it->handle->kill();
          while (it->handle->running()) {
            std::this_thread::sleep_for(std::chrono::milliseconds{1});
          }
        } else {
          // Beat once per period: passes woken early by another worker's
          // exit touch no claim.
          const auto now = std::chrono::steady_clock::now();
          if (now - it->last_beat >= kIdlePeriod) {
            queue.heartbeat(it->ticket);
            // How far past the heartbeat period this beat came.
            sink.observe_lazy(metrics::kCampaignHeartbeatJitterNs, [&] {
              return std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now - it->last_beat - kIdlePeriod)
                  .count();
            });
            it->last_beat = now;
          }
          ++it;
          continue;
        }
      }
      progressed = true;
      const CampaignTask& task = tasks[it->task_index];
      TaskRecord& rec = manifest.tasks[it->task_index];
      const std::string& id = task.id;
      metrics::span_end(spans, metrics::kCampaignTaskRunning,
                        rngx::hash_tag(id), it->trace_begin);
      const int code = it->handle->exit_code();
      const std::string part = queue.partial_artifact_path(id);

      std::string err;
      if (timed_out) {
        err = "worker exceeded --task-timeout-ms (" +
              std::to_string(cfg.task_timeout.count()) + " ms) and was killed";
      } else if (code != 0) {
        err = "worker exited with code " + std::to_string(code);
      } else if (!fs::exists(part)) {
        err = "worker exited 0 but wrote no artifact";
      } else {
        double wall_ms = 0.0;
        err = validate_artifact(part, task, &wall_ms);
        if (err.empty()) {
          std::error_code ec;
          fs::rename(part, queue.artifact_path(id), ec);
          if (ec) {
            err = "cannot promote artifact: " + ec.message();
          } else {
            rec.wall_time_ms =
                wall_ms > 0.0
                    ? wall_ms
                    : std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - it->started)
                          .count();
          }
        }
      }

      if (err.empty()) {
        rec.status = TaskStatus::kDone;
        completed_this_run[it->task_index] = true;
        queue.complete(it->ticket);
        task_event(metrics::kCampaignTaskPromoted, id);
        event(cfg, "task %s: done (attempt %zu)", id.c_str(), rec.attempts);
        maybe_merge_study(task.study_index);
      } else {
        std::error_code ec;
        fs::remove(part, ec);
        const std::size_t used = it->ticket.attempts + 1;
        if (used < 1 + cfg.max_retries) {
          queue.release_for_retry(it->ticket, used);
          task_event(metrics::kCampaignTaskRetried, id);
          ++report.retried;
          sink.add(metrics::kCampaignTaskRetries);
          event(cfg, "task %s: attempt %zu failed (%s; log: %s) — retrying",
                id.c_str(), used, err.c_str(), queue.log_path(id).c_str());
        } else {
          rec.status = TaskStatus::kFailed;
          queue.complete(it->ticket);
          report.failures.push_back("task " + id + ": " + err + " after " +
                                    std::to_string(used) +
                                    " attempt(s) (log: " +
                                    queue.log_path(id) + ")");
          event(cfg, "task %s: FAILED after %zu attempt(s): %s", id.c_str(),
                used, err.c_str());
        }
      }
      save_manifest();
      it = active.erase(it);
    }

    // 2. Reclaim claims whose owner stopped heartbeating (crashed worker
    //    or coordinator sharing this state dir).
    for (const std::string& id :
         queue.requeue_stale_claims(cfg.stale_after, owner)) {
      ++report.reclaimed_stale;
      progressed = true;
      event(cfg, "task %s: reclaimed stale claim", id.c_str());
    }

    // 3. A foreign coordinator may finish tasks behind our back: adopt any
    //    validated artifact that appeared for an unclaimed pending task.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (manifest.tasks[i].status != TaskStatus::kPending) continue;
      bool ours = false;
      for (const auto& a : active) ours |= a.task_index == i;
      std::string invalid;
      if (ours || queue.is_claimed(tasks[i].id) ||
          !adopt_artifact(i, invalid)) {
        continue;
      }
      progressed = true;
      event(cfg, "task %s: completed externally", tasks[i].id.c_str());
      save_manifest();
      maybe_merge_study(tasks[i].study_index);
    }

    // 4. Fill the worker pool.
    while (active.size() < cfg.workers) {
      auto ticket = queue.try_claim(owner);
      if (!ticket.has_value()) break;
      const std::size_t idx = task_index_of(ticket->task_id);
      if (idx == tasks.size() ||
          manifest.tasks[idx].status != TaskStatus::kPending) {
        queue.complete(*ticket);  // stray or already-satisfied ticket
        continue;
      }
      const CampaignTask& task = tasks[idx];
      manifest.tasks[idx].attempts = ticket->attempts + 1;
      task_event(metrics::kCampaignTaskClaimed, task.id);
      std::error_code ec;
      fs::remove(queue.partial_artifact_path(task.id), ec);
      const auto claimed_at = std::chrono::steady_clock::now();
      const std::uint64_t trace_begin =
          metrics::span_begin(spans, metrics::kCampaignTaskRunning);
      auto handle = launcher(
          task, queue.spec_path(task.id), queue.partial_artifact_path(task.id),
          queue.log_path(task.id),
          cfg.trace ? queue.trace_path(task.id) : std::string{});
      ++report.launched;
      sink.add(metrics::kCampaignTasksLaunched);
      const auto launched_at = std::chrono::steady_clock::now();
      sink.observe_lazy(metrics::kCampaignClaimToStartNs, [&] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   launched_at - claimed_at)
            .count();
      });
      progressed = true;
      event(cfg, "task %s: launched (attempt %zu)", task.id.c_str(),
            manifest.tasks[idx].attempts);
      active.push_back(Active{*ticket, idx, std::move(handle), launched_at,
                              launched_at, trace_begin});
    }

    // 5. Nothing running and nothing claimable: remaining tasks must be
    //    claimed elsewhere (we wait for completion or staleness). If they
    //    are not even claimed, the queue lost them — fail loudly instead
    //    of spinning forever.
    if (active.empty() && pending_count() > 0) {
      bool any_recoverable = false;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (manifest.tasks[i].status != TaskStatus::kPending) continue;
        any_recoverable |=
            queue.is_queued(tasks[i].id) || queue.is_claimed(tasks[i].id);
      }
      if (!any_recoverable) {
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          if (manifest.tasks[i].status != TaskStatus::kPending) continue;
          manifest.tasks[i].status = TaskStatus::kFailed;
          report.failures.push_back("task " + tasks[i].id +
                                    ": vanished from the work queue");
        }
        save_manifest();
        break;
      }
    }

    if (!progressed) {
      std::vector<int> exit_fds;
      exit_fds.reserve(active.size());
      for (const Active& a : active) exit_fds.push_back(a.handle->exit_fd());
      wait_for_exit(exit_fds, kIdlePeriod);
    }
  }

  // Studies fully satisfied by reused artifacts never saw a completion
  // event — make sure every complete study has its merged output.
  for (std::size_t k = 0; k < studies.size(); ++k) maybe_merge_study(k);

  for (const TaskRecord& rec : manifest.tasks) {
    if (rec.status == TaskStatus::kDone) ++report.completed;
  }
  save_manifest();
  if (cfg.trace) {
    // Coordinator lifecycle spans, plus whatever the coordinator itself
    // recorded on the process-global sink (io spans from artifact loads
    // during validation/merge) when that is a different object.
    metrics::TraceFile coord = spans.drain("coordinator");
    if (&spans != &metrics::global_sink()) {
      metrics::append(coord, metrics::global_sink().drain("coordinator"));
    }
    metrics::write_trace_file(
        (fs::path{queue.trace_dir()} / "coordinator.trace.json").string(),
        coord);
  }
  event(cfg,
        "campaign: %zu/%zu task(s) done (launched %zu worker(s), reused %zu "
        "artifact(s), retried %zu, reclaimed %zu stale claim(s)); state: %s",
        report.completed, report.tasks, report.launched, report.reused,
        report.retried, report.reclaimed_stale, cfg.dir.c_str());
  return report;
}

// -------------------------------------------------------------- launchers

WorkerLauncher subprocess_launcher(std::string varbench_binary) {
  return [bin = std::move(varbench_binary)](
             const CampaignTask&, const std::string& spec_path,
             const std::string& artifact_path, const std::string& log_path,
             const std::string& trace_path) -> std::unique_ptr<WorkerHandle> {
    class ProcessHandle : public WorkerHandle {
     public:
      explicit ProcessHandle(Subprocess p) : process_{std::move(p)} {}
      bool running() override { return process_.running(); }
      int exit_code() override { return process_.exit_code(); }
      void kill() override { process_.kill(); }
      [[nodiscard]] int exit_fd() const override { return process_.exit_fd(); }

     private:
      Subprocess process_;
    };
    try {
      std::vector<std::string> argv{bin, "run", spec_path, "--out",
                                    artifact_path};
      if (!trace_path.empty()) {
        argv.push_back("--trace-out");
        argv.push_back(trace_path);
      }
      return std::make_unique<ProcessHandle>(
          Subprocess::spawn(argv, log_path));
    } catch (const std::exception& e) {
      // Spawn failure counts as a failed attempt, not a coordinator crash.
      try {
        io::write_file(log_path, std::string{"spawn failed: "} + e.what() +
                                     "\n");
      } catch (const io::JsonError&) {
      }
      return std::make_unique<CompletedHandle>(127);
    }
  };
}

WorkerLauncher in_process_launcher() {
  return [](const CampaignTask& task, const std::string& spec_path,
            const std::string& artifact_path, const std::string& log_path,
            const std::string& trace_path) -> std::unique_ptr<WorkerHandle> {
    try {
      // Tracing mirrors what a subprocess worker with --trace-out does:
      // every span of the process-global sink, whose events are drained
      // before the run (so the task's trace numbers exec regions from 0)
      // and into the task's worker trace file after. Only events are
      // drained: campaign metrics on the same sink keep accumulating.
      metrics::Sink& g = metrics::global_sink();
      const bool trace = !trace_path.empty();
      if (trace) {
        (void)g.drain({});
        metrics::enable_selection(g, "all", metrics::Entries::kSpans);
      }
      // Execute what the state dir records — exactly what a subprocess
      // worker would read — not the in-memory task.
      const auto spec =
          study::StudySpec::from_json_text(io::read_file(spec_path));
      const auto table = study::run_study(spec);
      // The destination's extension says which format the campaign runs
      // in (".vbt.part" → binary), same as the subprocess worker's --out.
      table.save(artifact_path);
      if (trace) {
        metrics::write_trace_file(trace_path, g.drain("worker-" + task.id));
      }
      return std::make_unique<CompletedHandle>(0);
    } catch (const std::exception& e) {
      try {
        io::write_file(log_path, std::string{e.what()} + "\n");
      } catch (const io::JsonError&) {
      }
      return std::make_unique<CompletedHandle>(1);
    }
  };
}

}  // namespace varbench::campaign
