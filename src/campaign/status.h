// Live campaign visibility without touching the queue. `varbench status`
// (and embedders) read three things a running coordinator already
// maintains — the manifest, the claim files (whose bodies carry embedded
// progress snapshots since the status-heartbeat change, and whose mtimes
// are the liveness signal either way), and the queue listing — strictly
// read-only: no WorkQueue is constructed, no ticket is moved, so watching
// a campaign can never perturb it (docs/campaigns.md).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/json.h"

namespace varbench::campaign {

/// One live claim = one worker slot, as the claim file tells it.
struct WorkerStatus {
  std::string task_id;
  std::string owner;
  std::size_t attempts = 0;
  /// Milliseconds since the claim's last heartbeat (mtime).
  double heartbeat_age_ms = 0.0;
  /// Fields below come from the embedded "status" snapshot; absent for
  /// claims written by coordinators predating the status heartbeat.
  bool has_snapshot = false;
  double running_ms = 0.0;
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

/// The schema rule of every campaign.json reader (`varbench status` and the
/// report loader), the evolution contract of ResultTable
/// (docs/study_api.md): varbench.campaign.v1 reads as always, v2 reads
/// strictly — a field this build does not know throws, naming its JSON
/// path — and any other schema throws, naming `path` and both readable
/// versions. Errors are io::JsonError prefixed with `domain`.
void check_manifest_schema(const io::Json& manifest, std::string_view domain,
                           const std::string& path);

/// Read the state dir's current status. Throws io::JsonError when the
/// directory holds no campaign manifest, or one that is malformed or of a
/// schema check_manifest_schema refuses.
[[nodiscard]] CampaignStatus read_status(const std::string& state_dir);

[[nodiscard]] io::Json status_json(const CampaignStatus& status);

/// Human-readable multi-line rendering (what `varbench status` prints).
[[nodiscard]] std::string render_status_text(const CampaignStatus& status);

}  // namespace varbench::campaign
