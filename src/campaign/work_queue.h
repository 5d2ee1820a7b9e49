// Filesystem-backed work queue for campaign shards. The state directory is
// the single source of truth — no sockets, no daemon — so any number of
// coordinator processes (on any machine sharing the directory) can
// cooperate, crash, and resume:
//
//   <dir>/queue/<task>.todo     claimable ticket {"task", "attempts"}
//   <dir>/claims/<task>.claim   claimed ticket (+ "owner"); mtime = heartbeat
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
#include <optional>
#include <string>
#include <vector>

#include "src/io/json.h"

namespace varbench::campaign {

/// A queue ticket: how many launches the task has already consumed, and —
/// while claimed — who holds it.
struct Ticket {
  std::string task_id;
  std::size_t attempts = 0;
  std::string owner;
};

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
  /// Where per-process trace files land (docs/metrics.md).
  [[nodiscard]] std::string trace_dir() const;
  [[nodiscard]] std::string trace_path(const std::string& task_id) const;

  /// Make the task claimable (atomic write of queue/<id>.todo). Overwrites
  /// an existing ticket for the same task.
  void enqueue(const Ticket& ticket);

  [[nodiscard]] bool is_queued(const std::string& task_id) const;
  [[nodiscard]] bool is_claimed(const std::string& task_id) const;

  /// Claim the first queued task (lexicographic ticket order) via atomic
  /// rename, stamping `owner` into the claim. Returns nullopt when the
  /// queue is empty or every ticket was claimed by a racer first.
  [[nodiscard]] std::optional<Ticket> try_claim(const std::string& owner);

  /// Refresh the claim's heartbeat (mtime). No-op if the claim is gone.
  void heartbeat(const Ticket& claimed) const;

  /// Heartbeat that also embeds a live progress snapshot: rewrites the
  /// claim body as the ticket fields plus a "status" object (which
  /// `varbench status` renders), refreshing mtime via the atomic-write
  /// rename. Readers that only look at mtime — stale-claim reclaim, old
  /// tooling — are unaffected, and parse_ticket ignores the extra key, so
  /// old state dirs and new ones interoperate both ways. No-op unless
  /// `claimed.owner` still owns the on-disk claim (same takeover guard as
  /// complete()).
  void heartbeat(const Ticket& claimed, const io::Json& status) const;

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
