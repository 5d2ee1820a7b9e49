#include "src/campaign/status.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/io/spec_reader.h"

namespace varbench::campaign {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kManifestSchemaV1 = "varbench.campaign.v1";
constexpr std::string_view kManifestSchemaV2 = "varbench.campaign.v2";

/// Milliseconds from `mtime` to now on the filesystem clock; 0 floor so a
/// write that lands "in the future" (clock skew on shared mounts) reads as
/// a fresh heartbeat, not a negative age.
double age_ms(fs::file_time_type mtime) {
  const auto delta = fs::file_time_type::clock::now() - mtime;
  const double ms =
      std::chrono::duration<double, std::milli>(delta).count();
  return ms < 0.0 ? 0.0 : ms;
}

std::string fmt_ms(double ms) {
  char buf[64];
  if (ms >= 60'000.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", ms / 60'000.0);
  } else if (ms >= 1'000.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", ms / 1'000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ms", ms);
  }
  return std::string{buf};
}

}  // namespace

void check_manifest_schema(const io::Json& manifest, std::string_view domain,
                           const std::string& path) {
  const std::string& schema = manifest.at("schema").as_string();
  if (schema != kManifestSchemaV1 && schema != kManifestSchemaV2) {
    throw io::JsonError(std::string{domain} +
                        ": unsupported campaign manifest schema '" + schema +
                        "' in '" + path + "' (this build reads '" +
                        std::string{kManifestSchemaV1} + "' and '" +
                        std::string{kManifestSchemaV2} + "')");
  }
  if (schema != kManifestSchemaV2) return;
  // "metrics" is the coordinator's provenance block (docs/metrics.md).
  io::reject_unknown_fields(
      manifest, domain, kManifestSchemaV2, "$",
      {"schema", "shards", "max_retries", "studies", "tasks", "metrics"});
  for (const io::Json& task : manifest.at("tasks").as_array()) {
    io::reject_unknown_fields(
        task, domain, kManifestSchemaV2, "$.tasks[]",
        {"id", "study", "shard", "status", "attempts", "wall_time_ms"});
  }
}

CampaignStatus read_status(const std::string& state_dir) {
  CampaignStatus out;
  out.dir = state_dir;

  const std::string manifest_path =
      (fs::path{state_dir} / "campaign.json").string();
  io::Json manifest;
  try {
    manifest = io::Json::parse(io::read_file(manifest_path));
  } catch (const io::JsonError& e) {
    throw io::JsonError{"status: '" + state_dir +
                        "' holds no readable campaign manifest (" + e.what() +
                        ")"};
  }
  check_manifest_schema(manifest, "status", manifest_path);
  double wall_sum = 0.0;
  std::size_t wall_count = 0;
  for (const io::Json& task : manifest.at("tasks").as_array()) {
    ++out.tasks;
    const std::string& status = task.at("status").as_string();
    if (status == "done") {
      ++out.done;
      const io::Json* wall = task.find("wall_time_ms");
      if (wall != nullptr && wall->is_number() && wall->as_double() > 0.0) {
        wall_sum += wall->as_double();
        ++wall_count;
      }
    } else if (status == "failed") {
      ++out.failed;
    }
    const io::Json* attempts = task.find("attempts");
    if (attempts != nullptr && attempts->is_number() &&
        attempts->as_uint64() > 1) {
      out.retries += static_cast<std::size_t>(attempts->as_uint64()) - 1;
    }
  }
  out.pending = out.tasks - out.done - out.failed;
  if (wall_count > 0) {
    out.mean_task_wall_ms = wall_sum / static_cast<double>(wall_count);
  }

  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator{fs::path{state_dir} / "queue", ec}) {
    if (entry.path().extension() == ".todo") ++out.queued;
  }

  for (const auto& entry :
       fs::directory_iterator{fs::path{state_dir} / "claims", ec}) {
    if (entry.path().extension() != ".claim") continue;
    WorkerStatus w;
    std::error_code stat_ec;
    const auto mtime = fs::last_write_time(entry.path(), stat_ec);
    if (stat_ec) continue;  // completed between listing and stat
    w.heartbeat_age_ms = age_ms(mtime);
    try {
      const io::Json claim = io::Json::parse(io::read_file(entry.path().string()));
      w.task_id = claim.at("task").as_string();
      if (const io::Json* owner = claim.find("owner")) {
        w.owner = owner->as_string();
      }
      if (const io::Json* attempts = claim.find("attempts")) {
        w.attempts = static_cast<std::size_t>(attempts->as_uint64());
      }
      if (const io::Json* snap = claim.find("status")) {
        w.has_snapshot = true;
        if (const io::Json* running = snap->find("running_ms")) {
          w.running_ms = running->as_double();
        }
      }
    } catch (const io::JsonError&) {
      // Claim vanished or is mid-write: fall back to the file name.
      const std::string name = entry.path().filename().string();
      w.task_id = name.substr(0, name.size() - std::string{".claim"}.size());
    }
    out.workers.push_back(std::move(w));
  }
  std::sort(out.workers.begin(), out.workers.end(),
            [](const WorkerStatus& a, const WorkerStatus& b) {
              return a.task_id < b.task_id;
            });

  if (out.pending > 0 && out.mean_task_wall_ms > 0.0) {
    const std::size_t slots = std::max<std::size_t>(1, out.workers.size());
    out.eta_ms = static_cast<double>(out.pending) * out.mean_task_wall_ms /
                 static_cast<double>(slots);
  }
  return out;
}

io::Json status_json(const CampaignStatus& status) {
  io::Json doc = io::Json::object();
  doc.set("dir", io::Json{status.dir});
  io::Json tasks = io::Json::object();
  tasks.set("total", io::Json{status.tasks});
  tasks.set("done", io::Json{status.done});
  tasks.set("failed", io::Json{status.failed});
  tasks.set("pending", io::Json{status.pending});
  tasks.set("queued", io::Json{status.queued});
  tasks.set("retries", io::Json{status.retries});
  doc.set("tasks", std::move(tasks));
  doc.set("mean_task_wall_ms", io::Json{status.mean_task_wall_ms});
  doc.set("eta_ms", io::Json{status.eta_ms});
  io::Json workers = io::Json::array();
  for (const WorkerStatus& w : status.workers) {
    io::Json row = io::Json::object();
    row.set("task", io::Json{w.task_id});
    row.set("owner", io::Json{w.owner});
    row.set("attempt", io::Json{w.attempts});
    row.set("heartbeat_age_ms", io::Json{w.heartbeat_age_ms});
    if (w.has_snapshot) row.set("running_ms", io::Json{w.running_ms});
    workers.push_back(std::move(row));
  }
  doc.set("workers", std::move(workers));
  return doc;
}

std::string render_status_text(const CampaignStatus& status) {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof(line),
                "campaign %s: %zu/%zu task(s) done, %zu failed, %zu pending "
                "(%zu queued), %zu %s\n",
                status.dir.c_str(), status.done, status.tasks, status.failed,
                status.pending, status.queued, status.retries,
                status.retries == 1 ? "retry" : "retries");
  out += line;
  if (status.mean_task_wall_ms > 0.0) {
    out += "  mean task wall " + fmt_ms(status.mean_task_wall_ms);
    if (status.eta_ms > 0.0) out += "; ETA ~" + fmt_ms(status.eta_ms);
    out += "\n";
  }
  if (status.workers.empty()) {
    out += "  no live workers (no claims on disk)\n";
  }
  for (const WorkerStatus& w : status.workers) {
    std::snprintf(line, sizeof(line),
                  "  worker %s: task %s attempt %zu, heartbeat %s ago",
                  w.owner.empty() ? "(unowned)" : w.owner.c_str(),
                  w.task_id.c_str(), w.attempts,
                  fmt_ms(w.heartbeat_age_ms).c_str());
    out += line;
    if (w.has_snapshot) {
      out += ", running " + fmt_ms(w.running_ms);
    }
    out += "\n";
  }
  return out;
}

}  // namespace varbench::campaign
