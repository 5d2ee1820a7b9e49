// Status-layer contract (docs/campaigns.md): heartbeats may carry a live
// progress snapshot in the claim body without breaking anything that
// already reads claims — mtime stays the liveness signal, parse_ticket
// ignores the extra key so status-carrying claims still requeue and
// re-claim, and the takeover guard keeps a worker from stomping a claim it
// lost. `varbench status` assembles all of it strictly read-only.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "src/campaign/campaign.h"
#include "src/campaign/status.h"
#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/io/json.h"
#include "src/study/study_spec.h"

namespace varbench::campaign {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_status_" + tag + "_" +
               std::to_string(current_process_id()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

io::Json snapshot(double running_ms) {
  io::Json snap = io::Json::object();
  snap.set("running_ms", io::Json{running_ms});
  snap.set("tasks_done", io::Json{std::uint64_t{1}});
  return snap;
}

std::string claim_path(const WorkQueue& queue, const std::string& task_id) {
  return (fs::path{queue.dir()} / "claims" / (task_id + ".claim")).string();
}

// ---------------------------------------------------- status heartbeats

TEST(StatusHeartbeat, EmbedsSnapshotInClaimBody) {
  const TempDir dir{"embed"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 1, ""});
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());

  queue.heartbeat(*claimed, snapshot(1234.5));

  const io::Json claim =
      io::Json::parse(io::read_file(claim_path(queue, "s0-0of2")));
  EXPECT_EQ(claim.at("task").as_string(), "s0-0of2");
  EXPECT_EQ(claim.at("attempts").as_uint64(), 1u);
  EXPECT_EQ(claim.at("owner").as_string(), "worker-a");
  EXPECT_DOUBLE_EQ(claim.at("status").at("running_ms").as_double(), 1234.5);
  EXPECT_EQ(claim.at("status").at("tasks_done").as_uint64(), 1u);
}

TEST(StatusHeartbeat, TakeoverGuardLeavesForeignClaimAlone) {
  const TempDir dir{"guard"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 1, ""});
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());

  // A stale-claim takeover: the on-disk claim now belongs to worker-b.
  io::Json other = io::Json::object();
  other.set("task", io::Json{"s0-0of2"});
  other.set("attempts", io::Json{std::uint64_t{2}});
  other.set("owner", io::Json{"worker-b"});
  io::write_file_atomic(claim_path(queue, "s0-0of2"), other.dump(2) + "\n");

  // worker-a's status heartbeat must not touch worker-b's claim.
  queue.heartbeat(*claimed, snapshot(7.0));
  const io::Json claim =
      io::Json::parse(io::read_file(claim_path(queue, "s0-0of2")));
  EXPECT_EQ(claim.at("owner").as_string(), "worker-b");
  EXPECT_EQ(claim.find("status"), nullptr);
}

TEST(StatusHeartbeat, StatusCarryingClaimStillRequeuesAndReclaims) {
  const TempDir dir{"requeue"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 2, ""});
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());
  queue.heartbeat(*claimed, snapshot(5.0));

  // Let the heartbeat age past a zero staleness threshold, then reclaim.
  std::this_thread::sleep_for(20ms);
  const auto reclaimed = queue.requeue_stale_claims(0ms, "someone-else");
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "s0-0of2");
  EXPECT_TRUE(queue.is_queued("s0-0of2"));

  // parse_ticket ignores the embedded "status" key, so the recycled
  // ticket claims cleanly and keeps its attempt count.
  const auto again = queue.try_claim("worker-b");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->task_id, "s0-0of2");
  EXPECT_EQ(again->attempts, 2u);
  EXPECT_EQ(again->owner, "worker-b");
}

// --------------------------------------------------------- read_status

TEST(ReadStatus, MissingManifestIsActionable) {
  const TempDir dir{"nomanifest"};
  try {
    (void)read_status(dir.str());
    FAIL() << "expected io::JsonError";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("manifest"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find(dir.str()), std::string::npos);
  }
}

TEST(ReadStatus, FinishedCampaignReportsAllDone) {
  const TempDir dir{"finished"};
  study::StudySpec spec;
  spec.kind = study::StudyKind::kCompare;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260809;
  spec.repetitions = 5;
  spec.figure.num_resamples = 50;
  CampaignConfig cfg;
  cfg.dir = dir.str();
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.stale_after = 10min;
  cfg.poll_interval = 1ms;
  const auto report = run_campaign(cfg, {spec}, in_process_launcher());
  ASSERT_TRUE(report.ok());

  const CampaignStatus status = read_status(dir.str());
  EXPECT_EQ(status.tasks, 2u);
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.failed, 0u);
  EXPECT_EQ(status.pending, 0u);
  EXPECT_EQ(status.queued, 0u);
  EXPECT_EQ(status.retries, 0u);
  EXPECT_TRUE(status.workers.empty());  // all claims completed away
  EXPECT_EQ(status.eta_ms, 0.0);        // nothing pending
}

TEST(ReadStatus, MidFlightDirReportsWorkersAndEta) {
  const TempDir dir{"midflight"};
  // Hand-build the three inputs read_status consumes: manifest, queue
  // listing, claim files — exactly what a live coordinator maintains.
  fs::create_directories(fs::path{dir.str()} / "queue");
  fs::create_directories(fs::path{dir.str()} / "claims");

  io::Json manifest = io::Json::object();
  io::Json tasks = io::Json::array();
  const auto task = [](const char* id, const char* status, double wall,
                       std::uint64_t attempts) {
    io::Json t = io::Json::object();
    t.set("id", io::Json{id});
    t.set("status", io::Json{status});
    t.set("attempts", io::Json{attempts});
    t.set("wall_time_ms", io::Json{wall});
    return t;
  };
  tasks.push_back(task("s0-0of4", "done", 80.0, 1));
  tasks.push_back(task("s0-1of4", "done", 120.0, 2));
  tasks.push_back(task("s0-2of4", "running", 0.0, 1));
  tasks.push_back(task("s0-3of4", "queued", 0.0, 1));
  manifest.set("tasks", std::move(tasks));
  io::write_file((fs::path{dir.str()} / "campaign.json").string(),
                 manifest.dump(2) + "\n");

  io::write_file((fs::path{dir.str()} / "queue" / "s0-3of4.todo").string(),
                 "{\"task\": \"s0-3of4\", \"attempts\": 1}\n");

  // One claim with an embedded snapshot, one without (a coordinator
  // predating the status heartbeat): both must surface.
  io::Json with_snap = io::Json::object();
  with_snap.set("task", io::Json{"s0-2of4"});
  with_snap.set("attempts", io::Json{std::uint64_t{1}});
  with_snap.set("owner", io::Json{"worker-a"});
  with_snap.set("status", snapshot(432.1));
  io::write_file((fs::path{dir.str()} / "claims" / "s0-2of4.claim").string(),
                 with_snap.dump(2) + "\n");
  io::Json bare = io::Json::object();
  bare.set("task", io::Json{"s0-1of4"});
  bare.set("attempts", io::Json{std::uint64_t{2}});
  bare.set("owner", io::Json{"worker-b"});
  io::write_file((fs::path{dir.str()} / "claims" / "s0-1of4.claim").string(),
                 bare.dump(2) + "\n");

  const CampaignStatus status = read_status(dir.str());
  EXPECT_EQ(status.tasks, 4u);
  EXPECT_EQ(status.done, 2u);
  EXPECT_EQ(status.failed, 0u);
  EXPECT_EQ(status.pending, 2u);
  EXPECT_EQ(status.queued, 1u);
  EXPECT_EQ(status.retries, 1u);  // one task on attempt 2
  EXPECT_DOUBLE_EQ(status.mean_task_wall_ms, 100.0);
  // 2 pending × 100 ms mean / 2 live claims.
  EXPECT_DOUBLE_EQ(status.eta_ms, 100.0);

  ASSERT_EQ(status.workers.size(), 2u);  // sorted by task id
  EXPECT_EQ(status.workers[0].task_id, "s0-1of4");
  EXPECT_EQ(status.workers[0].owner, "worker-b");
  EXPECT_EQ(status.workers[0].attempts, 2u);
  EXPECT_FALSE(status.workers[0].has_snapshot);
  EXPECT_GE(status.workers[0].heartbeat_age_ms, 0.0);
  EXPECT_EQ(status.workers[1].task_id, "s0-2of4");
  EXPECT_TRUE(status.workers[1].has_snapshot);
  EXPECT_DOUBLE_EQ(status.workers[1].running_ms, 432.1);

  // JSON projection carries the same numbers under stable keys.
  const io::Json doc = status_json(status);
  EXPECT_EQ(doc.at("tasks").at("total").as_uint64(), 4u);
  EXPECT_EQ(doc.at("tasks").at("pending").as_uint64(), 2u);
  EXPECT_EQ(doc.at("tasks").at("retries").as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("eta_ms").as_double(), 100.0);
  const auto& workers = doc.at("workers").as_array();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].find("running_ms"), nullptr);  // no snapshot
  EXPECT_DOUBLE_EQ(workers[1].at("running_ms").as_double(), 432.1);

  // Text rendering names the workers and the ETA.
  const std::string text = render_status_text(status);
  EXPECT_NE(text.find("2/4 task(s) done"), std::string::npos) << text;
  EXPECT_NE(text.find("ETA"), std::string::npos);
  EXPECT_NE(text.find("worker-a"), std::string::npos);
  EXPECT_NE(text.find("worker-b"), std::string::npos);
}

}  // namespace
}  // namespace varbench::campaign
