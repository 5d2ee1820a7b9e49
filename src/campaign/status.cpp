#include "src/campaign/status.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "src/campaign/work_queue.h"

namespace varbench::campaign {

namespace fs = std::filesystem;

namespace {

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

CampaignStatus read_status(const std::string& state_dir) {
  CampaignStatus out;
  out.dir = state_dir;

  const Manifest manifest =
      read_manifest((fs::path{state_dir} / "campaign.json").string());
  double wall_sum = 0.0;
  std::size_t wall_count = 0;
  for (const TaskRecord& task : manifest.tasks) {
    if (task.status == TaskStatus::kDone) {
      ++out.done;
      if (task.wall_time_ms > 0.0) {
        wall_sum += task.wall_time_ms;
        ++wall_count;
      }
    } else if (task.status == TaskStatus::kFailed) {
      ++out.failed;
    }
    if (task.attempts > 1) out.retries += task.attempts - 1;
  }
  out.tasks = manifest.tasks.size();
  out.pending = out.tasks - out.done - out.failed;
  if (wall_count > 0) {
    out.mean_task_wall_ms = wall_sum / static_cast<double>(wall_count);
  }

  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator{fs::path{state_dir} / "queue", ec}) {
    if (entry.path().extension() == ".todo") ++out.queued;
  }

  // Claim stamps are Unix-epoch milliseconds (WorkQueue::try_claim).
  const auto now_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  for (const auto& entry :
       fs::directory_iterator{fs::path{state_dir} / "claims", ec}) {
    if (entry.path().extension() != ".claim") continue;
    std::error_code stat_ec;
    const auto mtime = fs::last_write_time(entry.path(), stat_ec);
    if (stat_ec) continue;  // completed between listing and stat
    Ticket claim;
    try {
      claim = parse_ticket(entry.path().string());
    } catch (const io::JsonError&) {
      // Vanished or unreadable: fall back to the file name.
      claim.task_id = entry.path().stem().string();
    }
    WorkerStatus w{claim.task_id, claim.owner, claim.attempts + 1,
                   age_ms(mtime), std::nullopt};
    if (claim.claimed_at_ms != 0) {
      w.running_ms =
          std::max(0.0, now_ms - static_cast<double>(claim.claimed_at_ms));
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
    row.set("attempt", io::Json{w.attempt});
    row.set("heartbeat_age_ms", io::Json{w.heartbeat_age_ms});
    if (w.running_ms.has_value()) {
      row.set("running_ms", io::Json{*w.running_ms});
    }
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
                  w.task_id.c_str(), w.attempt,
                  fmt_ms(w.heartbeat_age_ms).c_str());
    out += line;
    if (w.running_ms.has_value()) out += ", running " + fmt_ms(*w.running_ms);
    out += "\n";
  }
  return out;
}

}  // namespace varbench::campaign
