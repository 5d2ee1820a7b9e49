// Filesystem-backed work queue for campaign shards, and the one reader and
// writer of every campaign state file. The state directory is the single
// source of truth — no sockets, no daemon — so any number of coordinator
// processes (on any machine sharing the directory) can cooperate, crash,
// and resume:
//
//   <dir>/campaign.json         the manifest (Manifest, read_manifest)
//   <dir>/queue/<task>.todo     claimable ticket {"task", "attempts"}
//   <dir>/claims/<task>.claim   claimed ticket (+ "owner", "claimed_at_ms");
//                               mtime = heartbeat
//   <dir>/specs/<task>.json     the shard StudySpec the worker executes
//   <dir>/artifacts/<task>.json validated shard artifact (.part while landing)
//   <dir>/logs/<task>.log       worker stdout + stderr
//
// Claiming is one atomic rename(queue/X.todo → claims/X.claim): exactly one
// claimant's rename finds the source file, every other racer gets ENOENT and
// moves on. Claim owners bump the claim file's mtime as a heartbeat; a claim
// whose mtime is older than the staleness threshold is treated as crashed
// and renamed back into the queue (docs/campaigns.md).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/io/json.h"

namespace varbench::campaign {

/// A queue ticket: how many launches the task has already consumed, and —
/// while claimed — who holds it and since when.
struct Ticket {
  std::string task_id;
  std::size_t attempts = 0;
  std::string owner;
  /// Unix-epoch milliseconds at which try_claim stamped the claim; 0 for a
  /// queued ticket and for claims of coordinators that predate the stamp.
  std::uint64_t claimed_at_ms = 0;
};

/// Read a ticket or claim file. Keys this build does not know are ignored,
/// so state dirs shared with older and newer coordinators interoperate.
/// Throws io::JsonError when the file is gone or malformed.
[[nodiscard]] Ticket parse_ticket(const std::string& path);

/// A task's state in the manifest. The coordinator's own view: a claimed or
/// queued task is pending.
enum class TaskStatus { kPending, kDone, kFailed };

/// One task row of campaign.json.
struct TaskRecord {
  std::string id;
  std::size_t study = 0;
  std::string shard;  // ShardSpec::label(), "i/N"
  TaskStatus status = TaskStatus::kPending;
  /// Launches consumed, the last one's number: 0 for a task this run
  /// reused or has not launched yet, and when the manifest omits it.
  std::size_t attempts = 0;
  /// Wall time of the task's last successful attempt: provenance, never
  /// identity. 0 until one is known (and when the manifest omits it).
  double wall_time_ms = 0.0;
};

/// campaign.json, the resumable record of a campaign.
struct Manifest {
  std::size_t shards = 1;
  std::size_t max_retries = 0;
  /// The study specs as raw JSON, so a reader can label a study this build
  /// cannot run.
  std::vector<io::Json> studies;
  std::vector<TaskRecord> tasks;
  /// The coordinator's "metrics" provenance block (docs/metrics.md).
  std::optional<io::Json> metrics;
};

/// The one schema rule of campaign.json, the evolution contract of
/// ResultTable (docs/study_api.md): schema v1 reads as always; v2 reads
/// strictly, refusing a field this build does not know by its JSON path;
/// any other schema is refused. Every error is an io::JsonError naming
/// `path`. `attempts`, `wall_time_ms` and `metrics` are optional.
[[nodiscard]] Manifest read_manifest(const std::string& path);

/// Atomically write `manifest` to `path` in schema v1, the one every
/// deployed reader understands.
void write_manifest(const std::string& path, const Manifest& manifest);

class WorkQueue {
 public:
  /// Opens (creating if needed) the state directory and its subdirectories.
  /// `artifact_ext` is the extension new shard artifacts are written with
  /// (".json" or ".vbt" — the campaign's --format). Throws io::JsonError
  /// when the directory cannot be created.
  explicit WorkQueue(std::string dir, std::string artifact_ext = ".json");

  [[nodiscard]] const std::string& dir() const { return dir_; }

  [[nodiscard]] std::string spec_path(const std::string& task_id) const;
  /// Where this campaign writes the task's artifact (preferred extension).
  [[nodiscard]] std::string artifact_path(const std::string& task_id) const;
  /// The task's artifact as it exists on disk, whichever format it was
  /// produced in: probes the preferred extension first, then the other —
  /// a JSON campaign resumed with --format binary (or vice versa) reuses
  /// every valid shard it already has. Returns artifact_path() when
  /// neither file exists.
  [[nodiscard]] std::string existing_artifact_path(
      const std::string& task_id) const;
  /// Where a worker writes before validation promotes it to artifact_path.
  [[nodiscard]] std::string partial_artifact_path(
      const std::string& task_id) const;
  [[nodiscard]] std::string log_path(const std::string& task_id) const;
  [[nodiscard]] std::string manifest_path() const;
  [[nodiscard]] std::string merged_dir() const;
  /// Where per-process trace files land (docs/metrics.md), and the one a
  /// task's worker writes (metrics::worker_trace_name inside trace_dir).
  [[nodiscard]] std::string trace_dir() const;
  [[nodiscard]] std::string trace_path(const std::string& task_id) const;

  /// Make the task claimable (atomic write of queue/<id>.todo). Overwrites
  /// an existing ticket for the same task.
  void enqueue(const Ticket& ticket);

  [[nodiscard]] bool is_queued(const std::string& task_id) const;
  [[nodiscard]] bool is_claimed(const std::string& task_id) const;

  /// Claim the first queued task in plan order (ids "s<k>-<i>of<N>" by
  /// study k, then shard i; any other id after them, in text order) via
  /// atomic rename, stamping `owner` and the claim time into the claim —
  /// the one time a claim body is written. Returns nullopt when the queue
  /// is empty or every ticket was claimed by a racer first.
  [[nodiscard]] std::optional<Ticket> try_claim(const std::string& owner);

  /// Refresh the claim's heartbeat (mtime). No-op if the claim is gone.
  void heartbeat(const Ticket& claimed) const;

  /// Return a claimed task to the queue carrying `attempts` (the launches
  /// consumed so far) — the retry path.
  void release_for_retry(const Ticket& claimed, std::size_t attempts);

  /// Drop the claim of a finished task — but only if `claimed.owner` still
  /// owns it (a stale-claim takeover means the on-disk claim is now
  /// someone else's; their work must not lose its claim).
  void complete(const Ticket& claimed);

  /// Requeue every claim (except `exclude_owner`'s) whose heartbeat is
  /// older than `stale_after`. Returns the task ids reclaimed.
  std::vector<std::string> requeue_stale_claims(
      std::chrono::milliseconds stale_after, const std::string& exclude_owner);

 private:
  std::string dir_;
  std::string artifact_ext_;
};

}  // namespace varbench::campaign
