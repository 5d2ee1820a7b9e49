#include "src/campaign/work_queue.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <filesystem>
#include <system_error>
#include <tuple>

#include "src/io/json.h"
#include "src/io/spec_reader.h"
#include "src/metrics/trace_file.h"

namespace varbench::campaign {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kTodoSuffix = ".todo";
constexpr std::string_view kClaimSuffix = ".claim";
constexpr std::string_view kManifestV1 = "varbench.campaign.v1";
constexpr std::string_view kManifestV2 = "varbench.campaign.v2";
/// The manifest's status names, indexed by TaskStatus.
constexpr std::array<std::string_view, 3> kStatusNames{"pending", "done",
                                                       "failed"};

std::string ticket_text(const Ticket& t) {
  io::Json doc = io::Json::object();
  doc.set("task", io::Json{t.task_id});
  doc.set("attempts", io::Json{t.attempts});
  if (!t.owner.empty()) doc.set("owner", io::Json{t.owner});
  if (t.claimed_at_ms != 0) {
    doc.set("claimed_at_ms", io::Json{t.claimed_at_ms});
  }
  return doc.dump(2) + "\n";
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

/// Where a task id sorts in claim order: plan ids "s<k>-<i>of<N>" first,
/// by (k, i), then any other name; text order breaks ties.
using ClaimKey = std::tuple<bool, std::uint64_t, std::uint64_t,
                            std::string_view>;
ClaimKey claim_key(std::string_view id) {
  std::string_view rest = id;
  // `prefix` then an unsigned decimal, consumed from `rest` into `out`.
  const auto field = [&rest](std::string_view prefix, std::uint64_t& out) {
    if (!rest.starts_with(prefix)) return false;
    rest.remove_prefix(prefix.size());
    const auto [next, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), out);
    rest.remove_prefix(static_cast<std::size_t>(next - rest.data()));
    return ec == std::errc{};
  };
  std::uint64_t study = 0;
  std::uint64_t shard = 0;
  std::uint64_t count = 0;
  if (field("s", study) && field("-", shard) && field("of", count) &&
      rest.empty()) {
    return {false, study, shard, id};
  }
  return {true, 0, 0, id};
}

/// Task ids carrying `suffix` inside `dir` (missing dir → empty), in claim
/// order.
std::vector<std::string> list_tasks(const fs::path& dir,
                                    std::string_view suffix) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{dir, ec}) {
    const std::string id = task_of(entry.path(), suffix);
    if (!id.empty()) out.push_back(id);
  }
  std::sort(out.begin(), out.end(),
            [](const std::string& a, const std::string& b) {
              return claim_key(a) < claim_key(b);
            });
  return out;
}

}  // namespace

Ticket parse_ticket(const std::string& path) {
  const io::Json doc = io::Json::parse(io::read_file(path));
  Ticket t;
  t.task_id = doc.at("task").as_string();
  t.attempts = static_cast<std::size_t>(doc.at("attempts").as_uint64());
  if (const io::Json* owner = doc.find("owner")) t.owner = owner->as_string();
  if (const io::Json* at = doc.find("claimed_at_ms")) {
    t.claimed_at_ms = at->as_uint64();
  }
  return t;
}

Manifest read_manifest(const std::string& path) {
  const std::string domain = "campaign manifest '" + path + "'";
  io::Json doc;
  try {
    doc = io::Json::parse(io::read_file(path));
  } catch (const io::JsonError& e) {
    throw io::JsonError(domain + ": " + e.what());
  }
  io::ObjectReader top{doc, domain, "$"};
  const std::string schema =
      io::read_string(top.at("schema"), domain, "schema");
  if (schema != kManifestV1 && schema != kManifestV2) {
    throw io::JsonError(domain + ": unsupported schema '" + schema +
                        "' (this build reads '" + std::string{kManifestV1} +
                        "' and '" + std::string{kManifestV2} + "')");
  }
  const bool strict = schema == kManifestV2;
  if (strict) {
    io::reject_unknown_fields(
        doc, domain, schema, "$",
        {"schema", "shards", "max_retries", "studies", "tasks", "metrics"});
  }
  const auto array_at = [&](std::string_view key) -> const io::Json::Array& {
    const io::Json& v = top.at(key);
    if (!v.is_array()) {
      throw io::JsonError(domain + ": '" + std::string{key} +
                          "' must be an array, got " + v.dump());
    }
    return v.as_array();
  };
  Manifest m;
  m.shards = io::read_size(top.at("shards"), domain, "shards");
  m.max_retries = io::read_size(top.at("max_retries"), domain, "max_retries");
  m.studies = array_at("studies");
  for (const io::Json& task : array_at("tasks")) {
    io::ObjectReader r{task, domain, "$.tasks[]"};
    if (strict) {
      io::reject_unknown_fields(
          task, domain, schema, "$.tasks[]",
          {"id", "study", "shard", "status", "attempts", "wall_time_ms"});
    }
    TaskRecord rec;
    rec.id = io::read_string(r.at("id"), domain, "id");
    rec.study = io::read_size(r.at("study"), domain, "study");
    rec.shard = io::read_string(r.at("shard"), domain, "shard");
    const std::string status =
        io::read_string(r.at("status"), domain, "status");
    const auto named =
        std::find(kStatusNames.begin(), kStatusNames.end(), status);
    if (named == kStatusNames.end()) {
      throw io::JsonError(domain + ": task '" + rec.id + "' has status '" +
                          status + "' (known: 'pending', 'done', 'failed')");
    }
    rec.status = static_cast<TaskStatus>(named - kStatusNames.begin());
    if (const io::Json* attempts = r.find("attempts")) {
      rec.attempts = io::read_size(*attempts, domain, "attempts");
    }
    if (const io::Json* wall = r.find("wall_time_ms")) {
      rec.wall_time_ms = io::read_double(*wall, domain, "wall_time_ms");
    }
    m.tasks.push_back(std::move(rec));
  }
  if (const io::Json* metrics = top.find("metrics")) m.metrics = *metrics;
  return m;
}

void write_manifest(const std::string& path, const Manifest& manifest) {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kManifestV1});
  doc.set("shards", io::Json{manifest.shards});
  doc.set("max_retries", io::Json{manifest.max_retries});
  doc.set("studies", io::Json(manifest.studies));
  io::Json tasks = io::Json::array();
  for (const TaskRecord& rec : manifest.tasks) {
    io::Json t = io::Json::object();
    t.set("id", io::Json{rec.id});
    t.set("study", io::Json{rec.study});
    t.set("shard", io::Json{rec.shard});
    t.set("status",
          io::Json{kStatusNames[static_cast<std::size_t>(rec.status)]});
    t.set("attempts", io::Json{rec.attempts});
    t.set("wall_time_ms", io::Json{rec.wall_time_ms});
    tasks.push_back(std::move(t));
  }
  doc.set("tasks", std::move(tasks));
  if (manifest.metrics.has_value()) doc.set("metrics", *manifest.metrics);
  io::write_file_atomic(path, doc.dump(2) + "\n");
}

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
  return (fs::path{trace_dir()} / metrics::worker_trace_name(task_id))
      .string();
}

void WorkQueue::enqueue(const Ticket& ticket) {
  // Queued tickets have no owner and no claim time.
  const Ticket t{ticket.task_id, ticket.attempts, "", 0};
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
    t.claimed_at_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
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
