#include "src/campaign/campaign.h"

#include <cstdarg>
#include <filesystem>
#include <map>
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

constexpr std::string_view kManifestSchema = "varbench.campaign.v1";

void event(const CampaignConfig& cfg, const char* fmt, ...) {
  if (cfg.events == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(cfg.events, fmt, args);
  va_end(args);
  std::fputc('\n', cfg.events);
  std::fflush(cfg.events);
}

struct TaskState {
  CampaignTask task;
  enum class Status { kPending, kDone, kFailed } status = Status::kPending;
  std::size_t attempts = 0;
  bool completed_this_run = false;
  /// Wall time of the successful attempt (worker-measured provenance from
  /// the artifact; coordinator launch-to-reap time when the artifact
  /// carries none). 0 until the task is done. Persisted in campaign.json
  /// so autoscaling hints and `varbench report <dir>` can read it.
  double wall_ms = 0.0;
};

std::string_view to_string(TaskState::Status s) {
  switch (s) {
    case TaskState::Status::kPending:
      return "pending";
    case TaskState::Status::kDone:
      return "done";
    case TaskState::Status::kFailed:
      return "failed";
  }
  return "pending";
}

// ------------------------------------------------------------- manifest

void write_manifest(const WorkQueue& queue, const CampaignConfig& cfg,
                    const std::vector<study::StudySpec>& studies,
                    const std::vector<TaskState>& states,
                    const metrics::Sink* sink = nullptr) {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kManifestSchema});
  doc.set("shards", io::Json{cfg.shards});
  doc.set("max_retries", io::Json{cfg.max_retries});
  io::Json specs = io::Json::array();
  for (const auto& s : studies) specs.push_back(s.to_json());
  doc.set("studies", std::move(specs));
  io::Json tasks = io::Json::array();
  for (const auto& st : states) {
    io::Json t = io::Json::object();
    t.set("id", io::Json{st.task.id});
    t.set("study", io::Json{st.task.study_index});
    t.set("shard", io::Json{st.task.spec.shard.label()});
    t.set("status", io::Json{to_string(st.status)});
    t.set("attempts", io::Json{st.attempts});
    t.set("wall_time_ms", io::Json{st.wall_ms});
    tasks.push_back(std::move(t));
  }
  doc.set("tasks", std::move(tasks));
  // Coordinator metrics ride along as provenance (identity lives in the
  // artifacts, not here): merged deterministically from the sink's
  // slots, written only when some campaign metric was enabled.
  if (sink != nullptr) {
    const metrics::Snapshot snap = sink->snapshot();
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
    if (!block.as_object().empty()) doc.set("metrics", std::move(block));
  }
  io::write_file_atomic(queue.manifest_path(), doc.dump(2) + "\n");
}

/// An existing manifest must describe this exact campaign — resuming with a
/// different spec list or shard count would mix incompatible artifacts.
void validate_manifest(const io::Json& doc, const std::string& path,
                       const std::vector<study::StudySpec>& studies,
                       std::size_t shards) {
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kManifestSchema) {
    throw io::JsonError("campaign: unsupported manifest schema '" + schema +
                        "' in '" + path + "' (this build writes '" +
                        std::string{kManifestSchema} + "')");
  }
  const auto manifest_shards =
      static_cast<std::size_t>(doc.at("shards").as_uint64());
  if (manifest_shards != shards) {
    throw io::JsonError(
        "campaign: state dir was initialized with --shards " +
        std::to_string(manifest_shards) + " but this invocation asks for " +
        std::to_string(shards) + " — shard counts cannot change mid-campaign");
  }
  const auto& manifest_studies = doc.at("studies").as_array();
  if (manifest_studies.size() != studies.size()) {
    throw io::JsonError("campaign: state dir holds " +
                        std::to_string(manifest_studies.size()) +
                        " studies but the spec file lists " +
                        std::to_string(studies.size()) +
                        " — resume with the original spec file");
  }
  for (std::size_t k = 0; k < studies.size(); ++k) {
    if (study::StudySpec::from_json(manifest_studies[k]) != studies[k]) {
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
  auto tasks = plan_tasks(studies, cfg.shards);

  CampaignReport report;
  report.tasks = tasks.size();

  const bool have_manifest = fs::exists(queue.manifest_path());
  if (have_manifest && !cfg.resume) {
    throw io::JsonError(
        "campaign: '" + cfg.dir + "' already holds a campaign — pass "
        "--resume to finish its gaps, or point --dir at a fresh directory");
  }
  // Wall times a previous coordinator recorded must survive --resume even
  // when the reused artifact itself carries no provenance (the promote
  // path records coordinator-measured time for exactly those artifacts).
  std::map<std::string, double> prior_wall_ms;
  if (have_manifest) {
    const io::Json doc = io::Json::parse(io::read_file(queue.manifest_path()));
    validate_manifest(doc, queue.manifest_path(), studies, cfg.shards);
    for (const io::Json& task : doc.at("tasks").as_array()) {
      const io::Json* wall = task.find("wall_time_ms");
      if (wall != nullptr && wall->is_number() && wall->as_double() > 0.0) {
        prior_wall_ms[task.at("id").as_string()] = wall->as_double();
      }
    }
  }
  const auto fall_back_to_prior_wall = [&](TaskState& st) {
    if (st.wall_ms > 0.0) return;
    const auto it = prior_wall_ms.find(st.task.id);
    if (it != prior_wall_ms.end()) st.wall_ms = it->second;
  };

  std::vector<TaskState> states;
  states.reserve(tasks.size());
  for (auto& t : tasks) states.push_back(TaskState{std::move(t)});

  const std::string owner =
      "coordinator-" + std::to_string(current_process_id());

  // Initialization doubles as gap analysis on resume: a task with a valid
  // artifact is done, everything else (re)enters the queue.
  for (auto& st : states) {
    const std::string& id = st.task.id;
    if (!fs::exists(queue.spec_path(id))) {
      io::write_file_atomic(queue.spec_path(id), st.task.spec.to_json_text());
    }
    // Probe both formats: a --format change between runs must not redo
    // (or worse, mistrust) shards that already landed the other way.
    const std::string existing = queue.existing_artifact_path(id);
    if (fs::exists(existing)) {
      const std::string err = validate_artifact(existing, st.task,
                                                &st.wall_ms);
      if (err.empty()) {
        fall_back_to_prior_wall(st);
        st.status = TaskState::Status::kDone;
        ++report.reused;
        event(cfg, "task %s: reusing existing artifact", id.c_str());
      } else {
        std::error_code ec;
        fs::remove(existing, ec);
        event(cfg, "task %s: discarding invalid artifact (%s)", id.c_str(),
              err.c_str());
      }
    }
    if (st.status == TaskState::Status::kPending && !queue.is_queued(id) &&
        !queue.is_claimed(id)) {
      queue.enqueue(Ticket{id, 0, ""});
      task_event(metrics::kCampaignTaskQueued, id);
    }
  }
  write_manifest(queue, cfg, studies, states, &sink);

  // Per-study incremental merge: fires the moment a study's last shard
  // lands (while other studies may still be running), and regenerates a
  // missing or superseded merged file on resume.
  std::vector<bool> study_merged(studies.size(), false);
  const auto maybe_merge_study = [&](std::size_t k) {
    if (study_merged[k]) return;
    bool fresh = false;
    for (const auto& st : states) {
      if (st.task.study_index != k) continue;
      if (st.status != TaskState::Status::kDone) return;  // incomplete
      fresh = fresh || st.completed_this_run;
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
      for (const auto& st : states) {
        if (st.task.study_index != k) continue;
        shard_paths.push_back(queue.existing_artifact_path(st.task.id));
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
    std::size_t state_index;
    std::unique_ptr<WorkerHandle> handle;
    std::chrono::steady_clock::time_point started;
    std::chrono::steady_clock::time_point last_beat;
    /// Last time the heartbeat rewrote the claim body with a status
    /// snapshot (full rewrites are throttled; mtime-only touches are not).
    std::chrono::steady_clock::time_point last_status;
    /// metrics::span_begin of the campaign.task_running span; 0 = disabled.
    std::uint64_t trace_begin = 0;
  };
  std::vector<Active> active;

  // The live progress snapshot a status-carrying heartbeat embeds in the
  // claim body — everything `varbench status` shows without touching the
  // queue (docs/campaigns.md).
  const auto status_snapshot = [&](const Active& a) {
    const TaskState& st = states[a.state_index];
    std::size_t done = 0;
    for (const auto& s : states) {
      if (s.status == TaskState::Status::kDone) ++done;
    }
    io::Json status = io::Json::object();
    status.set("attempt", io::Json{st.attempts});
    status.set("running_ms",
               io::Json{std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - a.started)
                            .count()});
    status.set("tasks_done", io::Json{done});
    status.set("tasks_total", io::Json{states.size()});
    status.set("retried", io::Json{report.retried});
    status.set("workers_active", io::Json{active.size()});
    return status;
  };

  const auto state_index_of = [&](const std::string& id) -> std::size_t {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].task.id == id) return i;
    }
    return states.size();
  };
  const auto pending_count = [&] {
    std::size_t n = 0;
    for (const auto& st : states) {
      if (st.status == TaskState::Status::kPending) ++n;
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
          // Plain mtime touch every poll; full status-body rewrite at most
          // ~1/s (the first beat immediately), so liveness stays cheap and
          // `varbench status` still sees fresh numbers.
          const auto now = std::chrono::steady_clock::now();
          if (now - it->last_status >= std::chrono::seconds{1}) {
            queue.heartbeat(it->ticket, status_snapshot(*it));
            it->last_status = now;
          } else {
            queue.heartbeat(it->ticket);
          }
          // Beat-to-beat period vs poll_interval: scheduling jitter of the
          // reap loop (autoscaling signal, ROADMAP item 2).
          if (sink.is_enabled(metrics::kCampaignHeartbeatJitterNs)) {
            const auto beat = std::chrono::steady_clock::now();
            const auto period = std::chrono::duration_cast<
                std::chrono::nanoseconds>(beat - it->last_beat);
            const auto target = std::chrono::duration_cast<
                std::chrono::nanoseconds>(cfg.poll_interval);
            const auto jitter_ns = period > target ? period - target
                                                   : target - period;
            sink.observe(metrics::kCampaignHeartbeatJitterNs,
                         static_cast<std::uint64_t>(jitter_ns.count()));
            it->last_beat = beat;
          }
          ++it;
          continue;
        }
      }
      progressed = true;
      TaskState& st = states[it->state_index];
      const std::string& id = st.task.id;
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
        err = validate_artifact(part, st.task, &wall_ms);
        if (err.empty()) {
          std::error_code ec;
          fs::rename(part, queue.artifact_path(id), ec);
          if (ec) {
            err = "cannot promote artifact: " + ec.message();
          } else {
            st.wall_ms =
                wall_ms > 0.0
                    ? wall_ms
                    : std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - it->started)
                          .count();
          }
        }
      }

      if (err.empty()) {
        st.status = TaskState::Status::kDone;
        st.completed_this_run = true;
        queue.complete(it->ticket);
        task_event(metrics::kCampaignTaskPromoted, id);
        event(cfg, "task %s: done (attempt %zu)", id.c_str(), st.attempts);
        maybe_merge_study(st.task.study_index);
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
          st.status = TaskState::Status::kFailed;
          queue.complete(it->ticket);
          report.failures.push_back("task " + id + ": " + err + " after " +
                                    std::to_string(used) +
                                    " attempt(s) (log: " +
                                    queue.log_path(id) + ")");
          event(cfg, "task %s: FAILED after %zu attempt(s): %s", id.c_str(),
                used, err.c_str());
        }
      }
      write_manifest(queue, cfg, studies, states, &sink);
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
    for (auto& st : states) {
      if (st.status != TaskState::Status::kPending) continue;
      const std::string& id = st.task.id;
      bool ours = false;
      for (const auto& a : active) ours |= states[a.state_index].task.id == id;
      const std::string adopted = queue.existing_artifact_path(id);
      if (ours || queue.is_claimed(id) || !fs::exists(adopted)) {
        continue;
      }
      if (validate_artifact(adopted, st.task, &st.wall_ms).empty()) {
        fall_back_to_prior_wall(st);
        st.status = TaskState::Status::kDone;
        progressed = true;
        event(cfg, "task %s: completed externally", id.c_str());
        write_manifest(queue, cfg, studies, states, &sink);
        maybe_merge_study(st.task.study_index);
      }
    }

    // 4. Fill the worker pool.
    while (active.size() < cfg.workers) {
      auto ticket = queue.try_claim(owner);
      if (!ticket.has_value()) break;
      const std::size_t idx = state_index_of(ticket->task_id);
      if (idx == states.size() ||
          states[idx].status != TaskState::Status::kPending) {
        queue.complete(*ticket);  // stray or already-satisfied ticket
        continue;
      }
      TaskState& st = states[idx];
      st.attempts = ticket->attempts + 1;
      task_event(metrics::kCampaignTaskClaimed, st.task.id);
      std::error_code ec;
      fs::remove(queue.partial_artifact_path(st.task.id), ec);
      const auto claimed_at = std::chrono::steady_clock::now();
      const std::uint64_t trace_begin =
          metrics::span_begin(spans, metrics::kCampaignTaskRunning);
      auto handle = launcher(st.task, queue.spec_path(st.task.id),
                             queue.partial_artifact_path(st.task.id),
                             queue.log_path(st.task.id));
      ++report.launched;
      sink.add(metrics::kCampaignTasksLaunched);
      const auto launched_at = std::chrono::steady_clock::now();
      sink.observe_lazy(metrics::kCampaignClaimToStartNs, [&] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   launched_at - claimed_at)
            .count();
      });
      progressed = true;
      event(cfg, "task %s: launched (attempt %zu)", st.task.id.c_str(),
            st.attempts);
      active.push_back(Active{*ticket, idx, std::move(handle), launched_at,
                              launched_at, {}, trace_begin});
    }

    // 5. Nothing running and nothing claimable: remaining tasks must be
    //    claimed elsewhere (we wait for completion or staleness). If they
    //    are not even claimed, the queue lost them — fail loudly instead
    //    of spinning forever.
    if (active.empty() && pending_count() > 0) {
      bool any_recoverable = false;
      for (const auto& st : states) {
        if (st.status != TaskState::Status::kPending) continue;
        any_recoverable |= queue.is_queued(st.task.id) ||
                           queue.is_claimed(st.task.id);
      }
      if (!any_recoverable) {
        for (auto& st : states) {
          if (st.status != TaskState::Status::kPending) continue;
          st.status = TaskState::Status::kFailed;
          report.failures.push_back("task " + st.task.id +
                                    ": vanished from the work queue");
        }
        write_manifest(queue, cfg, studies, states, &sink);
        break;
      }
    }

    if (!progressed) std::this_thread::sleep_for(cfg.poll_interval);
  }

  // Studies fully satisfied by reused artifacts never saw a completion
  // event — make sure every complete study has its merged output.
  for (std::size_t k = 0; k < studies.size(); ++k) maybe_merge_study(k);

  for (const auto& st : states) {
    if (st.status == TaskState::Status::kDone) ++report.completed;
  }
  write_manifest(queue, cfg, studies, states, &sink);
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

WorkerLauncher subprocess_launcher(std::string varbench_binary, bool trace) {
  return [bin = std::move(varbench_binary), trace](
             const CampaignTask& task, const std::string& spec_path,
             const std::string& artifact_path,
             const std::string& log_path) -> std::unique_ptr<WorkerHandle> {
    class ProcessHandle : public WorkerHandle {
     public:
      explicit ProcessHandle(Subprocess p) : process_{std::move(p)} {}
      bool running() override { return process_.running(); }
      int exit_code() override { return process_.exit_code(); }
      void kill() override { process_.kill(); }

     private:
      Subprocess process_;
    };
    try {
      std::vector<std::string> argv{bin, "run", spec_path, "--out",
                                    artifact_path};
      if (trace) {
        // artifact_path is <dir>/artifacts/<id>.<ext>.part — the state dir
        // is two levels up, and the trace lands beside the other workers'.
        const fs::path state_dir =
            fs::path{artifact_path}.parent_path().parent_path();
        argv.push_back("--trace-out");
        argv.push_back(
            (state_dir / "traces" / metrics::worker_trace_name(task.id))
                .string());
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

WorkerLauncher in_process_launcher(bool trace) {
  return [trace](const CampaignTask& task, const std::string& spec_path,
                 const std::string& artifact_path,
                 const std::string& log_path) -> std::unique_ptr<WorkerHandle> {
    try {
      // Tracing mirrors what a subprocess worker with --trace-out does:
      // every span of the process-global sink, whose events are drained
      // before the run (so the task's trace numbers exec regions from 0)
      // and into the task's worker trace file after. Only events are
      // drained: campaign metrics on the same sink keep accumulating.
      metrics::Sink& g = metrics::global_sink();
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
        const fs::path state_dir =
            fs::path{artifact_path}.parent_path().parent_path();
        metrics::write_trace_file(
            (state_dir / "traces" / metrics::worker_trace_name(task.id))
                .string(),
            g.drain("worker-" + task.id));
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
