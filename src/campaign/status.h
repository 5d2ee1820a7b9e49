// Live campaign visibility without touching the queue. `varbench status`
// (and embedders) read three things a running coordinator already
// maintains — the manifest, the claim files (whose bodies say who claimed
// the task and when, and whose mtimes are the liveness signal), and the
// queue listing — through work_queue.h's readers, strictly read-only: no
// WorkQueue is constructed, no ticket is moved, so watching a campaign can
// never perturb it (docs/campaigns.md).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/io/json.h"

namespace varbench::campaign {

/// One live claim = one worker slot, as the claim file tells it.
struct WorkerStatus {
  std::string task_id;
  std::string owner;
  /// The launch in progress, counted from 1 as the coordinator logs it:
  /// the claimed ticket's attempts (launches made before this one) + 1.
  std::size_t attempt = 0;
  /// Milliseconds since the claim's last heartbeat (mtime).
  double heartbeat_age_ms = 0.0;
  /// Milliseconds since the claim's "claimed_at_ms" stamp; absent for
  /// claims written by coordinators that predate the stamp.
  std::optional<double> running_ms;
};

struct CampaignStatus {
  std::string dir;
  std::size_t tasks = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t pending = 0;  // tasks - done - failed (queued or claimed)
  std::size_t queued = 0;   // claimable tickets on disk right now
  /// Total attempts beyond each task's first, from the manifest.
  std::size_t retries = 0;
  /// Mean wall time of completed tasks with recorded provenance; 0 when
  /// none completed yet.
  double mean_task_wall_ms = 0.0;
  /// pending × mean wall / live worker slots; 0 until both are known.
  double eta_ms = 0.0;
  std::vector<WorkerStatus> workers;  // live claims, sorted by task id
};

/// Read the state dir's current status. Throws io::JsonError when the
/// directory holds no campaign manifest, or one read_manifest refuses.
[[nodiscard]] CampaignStatus read_status(const std::string& state_dir);

[[nodiscard]] io::Json status_json(const CampaignStatus& status);

/// Human-readable multi-line rendering (what `varbench status` prints).
[[nodiscard]] std::string render_status_text(const CampaignStatus& status);

}  // namespace varbench::campaign
