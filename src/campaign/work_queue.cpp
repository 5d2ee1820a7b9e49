#include "src/campaign/work_queue.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "src/io/json.h"

namespace varbench::campaign {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTodoSuffix = ".todo";
constexpr std::string_view kClaimSuffix = ".claim";

std::string ticket_text(const Ticket& t) {
  io::Json doc = io::Json::object();
  doc.set("task", io::Json{t.task_id});
  doc.set("attempts", io::Json{t.attempts});
  if (!t.owner.empty()) doc.set("owner", io::Json{t.owner});
  return doc.dump(2) + "\n";
}

Ticket parse_ticket(const std::string& path) {
  const io::Json doc = io::Json::parse(io::read_file(path));
  Ticket t;
  t.task_id = doc.at("task").as_string();
  t.attempts = static_cast<std::size_t>(doc.at("attempts").as_uint64());
  if (const io::Json* owner = doc.find("owner")) t.owner = owner->as_string();
  return t;
}

/// Strip a known suffix from a queue/claims file name; empty if absent.
std::string task_of(const fs::path& file, std::string_view suffix) {
  const std::string name = file.filename().string();
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return {};
  }
  return name.substr(0, name.size() - suffix.size());
}

/// Sorted task ids carrying `suffix` inside `dir` (missing dir → empty).
std::vector<std::string> list_tasks(const fs::path& dir,
                                    std::string_view suffix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string id = task_of(entry.path(), suffix);
    if (!id.empty()) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

WorkQueue::WorkQueue(std::string dir, std::string artifact_ext)
    : dir_{std::move(dir)}, artifact_ext_{std::move(artifact_ext)} {
  if (artifact_ext_ != ".json" && artifact_ext_ != ".vbt") {
    throw io::JsonError("campaign: unsupported artifact extension '" +
                        artifact_ext_ + "' (use .json or .vbt)");
  }
  std::error_code ec;
  for (const char* sub : {"", "queue", "claims", "specs", "artifacts", "logs",
                          "merged", "traces"}) {
    const fs::path p = fs::path{dir_} / sub;
    fs::create_directories(p, ec);
    if (ec && !fs::is_directory(p)) {
      throw io::JsonError("campaign: cannot create state directory '" +
                          p.string() + "': " + ec.message());
    }
  }
}

std::string WorkQueue::spec_path(const std::string& task_id) const {
  return (fs::path{dir_} / "specs" / (task_id + ".json")).string();
}

std::string WorkQueue::artifact_path(const std::string& task_id) const {
  return (fs::path{dir_} / "artifacts" / (task_id + artifact_ext_)).string();
}

std::string WorkQueue::existing_artifact_path(
    const std::string& task_id) const {
  const std::string preferred = artifact_path(task_id);
  if (fs::exists(preferred)) return preferred;
  const std::string other_ext = artifact_ext_ == ".json" ? ".vbt" : ".json";
  const std::string other =
      (fs::path{dir_} / "artifacts" / (task_id + other_ext)).string();
  return fs::exists(other) ? other : preferred;
}

std::string WorkQueue::partial_artifact_path(const std::string& task_id) const {
  return artifact_path(task_id) + ".part";
}

std::string WorkQueue::log_path(const std::string& task_id) const {
  return (fs::path{dir_} / "logs" / (task_id + ".log")).string();
}

std::string WorkQueue::manifest_path() const {
  return (fs::path{dir_} / "campaign.json").string();
}

std::string WorkQueue::merged_dir() const {
  return (fs::path{dir_} / "merged").string();
}

std::string WorkQueue::trace_dir() const {
  return (fs::path{dir_} / "traces").string();
}

std::string WorkQueue::trace_path(const std::string& task_id) const {
  return (fs::path{dir_} / "traces" / ("worker-" + task_id + ".trace.json"))
      .string();
}

void WorkQueue::enqueue(const Ticket& ticket) {
  Ticket t = ticket;
  t.owner.clear();  // queued tickets have no owner
  io::write_file_atomic(
      (fs::path{dir_} / "queue" / (t.task_id + std::string{kTodoSuffix}))
          .string(),
      ticket_text(t));
}

bool WorkQueue::is_queued(const std::string& task_id) const {
  return fs::exists(fs::path{dir_} / "queue" /
                    (task_id + std::string{kTodoSuffix}));
}

bool WorkQueue::is_claimed(const std::string& task_id) const {
  return fs::exists(fs::path{dir_} / "claims" /
                    (task_id + std::string{kClaimSuffix}));
}

std::optional<Ticket> WorkQueue::try_claim(const std::string& owner) {
  for (const std::string& id : list_tasks(fs::path{dir_} / "queue",
                                          kTodoSuffix)) {
    const fs::path todo =
        fs::path{dir_} / "queue" / (id + std::string{kTodoSuffix});
    const fs::path claim =
        fs::path{dir_} / "claims" / (id + std::string{kClaimSuffix});
    std::error_code ec;
    fs::rename(todo, claim, ec);
    if (ec) continue;  // a racing claimant won this ticket; try the next
    Ticket t;
    try {
      t = parse_ticket(claim.string());
    } catch (const io::JsonError&) {
      t.task_id = id;  // corrupt ticket: claim it anyway, attempts reset
    }
    t.owner = owner;
    io::write_file_atomic(claim.string(), ticket_text(t));
    return t;
  }
  return std::nullopt;
}

void WorkQueue::heartbeat(const Ticket& claimed) const {
  const fs::path claim = fs::path{dir_} / "claims" /
                         (claimed.task_id + std::string{kClaimSuffix});
  std::error_code ec;
  fs::last_write_time(claim, fs::file_time_type::clock::now(), ec);
}

void WorkQueue::heartbeat(const Ticket& claimed, const io::Json& status) const {
  const fs::path claim = fs::path{dir_} / "claims" /
                         (claimed.task_id + std::string{kClaimSuffix});
  // Same ownership guard as complete(): after a stale-claim takeover the
  // on-disk file is someone else's live claim — never overwrite it.
  try {
    if (parse_ticket(claim.string()).owner != claimed.owner) return;
  } catch (const io::JsonError&) {
    return;  // gone or unreadable: nothing to refresh
  }
  io::Json doc = io::Json::object();
  doc.set("task", io::Json{claimed.task_id});
  doc.set("attempts", io::Json{claimed.attempts});
  if (!claimed.owner.empty()) doc.set("owner", io::Json{claimed.owner});
  doc.set("status", status);
  io::write_file_atomic(claim.string(), doc.dump(2) + "\n");
}

void WorkQueue::release_for_retry(const Ticket& claimed, std::size_t attempts) {
  // Drop the claim first: enqueueing while the claim still exists would
  // let a racer claim the new ticket by renaming it *onto* our claim file.
  complete(claimed);
  Ticket t = claimed;
  t.attempts = attempts;
  enqueue(t);
}

void WorkQueue::complete(const Ticket& claimed) {
  const fs::path claim = fs::path{dir_} / "claims" /
                         (claimed.task_id + std::string{kClaimSuffix});
  // Only remove a claim we still own: after a stale-claim takeover (we
  // stalled past the staleness threshold and another coordinator requeued
  // and re-claimed the task) the file on disk is someone else's live claim.
  if (!claimed.owner.empty()) {
    try {
      if (parse_ticket(claim.string()).owner != claimed.owner) return;
    } catch (const io::JsonError&) {
      // Unreadable or vanished: fall through; remove() is a no-op if gone.
    }
  }
  std::error_code ec;
  fs::remove(claim, ec);
}

std::vector<std::string> WorkQueue::requeue_stale_claims(
    std::chrono::milliseconds stale_after, const std::string& exclude_owner) {
  std::vector<std::string> reclaimed;
  const auto now = fs::file_time_type::clock::now();
  for (const std::string& id : list_tasks(fs::path{dir_} / "claims",
                                          kClaimSuffix)) {
    const fs::path claim =
        fs::path{dir_} / "claims" / (id + std::string{kClaimSuffix});
    std::error_code ec;
    const auto mtime = fs::last_write_time(claim, ec);
    if (ec) continue;  // vanished (completed) between listing and stat
    if (now - mtime < stale_after) continue;
    if (!exclude_owner.empty()) {
      try {
        if (parse_ticket(claim.string()).owner == exclude_owner) continue;
      } catch (const io::JsonError&) {
        // Unreadable claim: treat as crashed and reclaim below.
      }
    }
    // Atomic takeover: rename back into the queue. A racing reclaimer (or
    // the original owner completing) makes this fail — then it's theirs.
    const fs::path todo =
        fs::path{dir_} / "queue" / (id + std::string{kTodoSuffix});
    fs::rename(claim, todo, ec);
    if (!ec) reclaimed.push_back(id);
  }
  return reclaimed;
}

}  // namespace varbench::campaign
