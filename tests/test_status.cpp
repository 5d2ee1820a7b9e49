// Status-layer contract (docs/campaigns.md): a claim body is written once,
// by try_claim, with its owner and claim time; heartbeats only touch the
// mtime, the liveness signal. parse_ticket ignores keys it does not know,
// so claims of older coordinators still requeue and re-claim, and the
// takeover guard keeps a coordinator from dropping a claim it lost.
// `varbench status` assembles all of it strictly read-only.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

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

std::string claim_path(const WorkQueue& queue, const std::string& task_id) {
  return (fs::path{queue.dir()} / "claims" / (task_id + ".claim")).string();
}

// ------------------------------------------------------------ claim body

TEST(ClaimBody, TryClaimStampsOwnerAndClaimTimeOnce) {
  const TempDir dir{"stamp"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 1, ""});
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->attempts, 1u);  // launches made before this one
  EXPECT_EQ(claimed->owner, "worker-a");
  // Unix-epoch milliseconds: any stamp taken after September 2020.
  EXPECT_GT(claimed->claimed_at_ms, 1'600'000'000'000u);

  const std::string body = io::read_file(claim_path(queue, "s0-0of2"));
  const Ticket on_disk = parse_ticket(claim_path(queue, "s0-0of2"));
  EXPECT_EQ(on_disk.task_id, "s0-0of2");
  EXPECT_EQ(on_disk.attempts, 1u);
  EXPECT_EQ(on_disk.owner, "worker-a");
  EXPECT_EQ(on_disk.claimed_at_ms, claimed->claimed_at_ms);

  // A heartbeat refreshes the mtime and leaves the body as stamped.
  queue.heartbeat(*claimed);
  EXPECT_EQ(io::read_file(claim_path(queue, "s0-0of2")), body);
}

TEST(ClaimBody, CompleteLeavesAForeignClaimAlone) {
  const TempDir dir{"guard"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 1, ""});
  const auto claimed = queue.try_claim("worker-a");
  ASSERT_TRUE(claimed.has_value());

  // A stale-claim takeover: the on-disk claim now belongs to worker-b.
  io::write_file_atomic(
      claim_path(queue, "s0-0of2"),
      R"({"task": "s0-0of2", "attempts": 2, "owner": "worker-b"})"
      "\n");

  // worker-a finishing late must not drop worker-b's live claim...
  queue.complete(*claimed);
  ASSERT_TRUE(queue.is_claimed("s0-0of2"));
  EXPECT_EQ(parse_ticket(claim_path(queue, "s0-0of2")).owner, "worker-b");
  // ...while worker-b's own completion does.
  queue.complete(Ticket{"s0-0of2", 2, "worker-b"});
  EXPECT_FALSE(queue.is_claimed("s0-0of2"));
}

TEST(ClaimBody, OlderCoordinatorsClaimStillRequeuesAndReclaims) {
  const TempDir dir{"requeue"};
  WorkQueue queue{dir.str()};
  queue.enqueue(Ticket{"s0-0of2", 2, ""});
  ASSERT_TRUE(queue.try_claim("worker-a").has_value());
  // What an older coordinator's claim looks like: no claim stamp, and an
  // embedded "status" key this build does not know.
  io::write_file_atomic(
      claim_path(queue, "s0-0of2"),
      R"({"task": "s0-0of2", "attempts": 2, "owner": "worker-a",)"
      R"( "status": {"running_ms": 5.0, "tasks_done": 1}})"
      "\n");

  // Let the heartbeat age past a zero staleness threshold, then reclaim.
  std::this_thread::sleep_for(20ms);
  const auto reclaimed = queue.requeue_stale_claims(0ms, "someone-else");
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "s0-0of2");
  EXPECT_TRUE(queue.is_queued("s0-0of2"));

  // parse_ticket ignores the unknown key, so the recycled ticket claims
  // cleanly, keeps its attempt count and gets a claim stamp of its own.
  const auto again = queue.try_claim("worker-b");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->task_id, "s0-0of2");
  EXPECT_EQ(again->attempts, 2u);
  EXPECT_EQ(again->owner, "worker-b");
  EXPECT_GT(again->claimed_at_ms, 0u);
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

TEST(ReadStatus, UnsupportedSchemaIsActionable) {
  // read_manifest's rule, shared with the report loader and --resume: v1
  // and v2 read, anything else is refused naming the file and both
  // readable versions; v2 refuses unknown fields by JSON path.
  const TempDir dir{"schema"};
  const std::string path = (fs::path{dir.str()} / "campaign.json").string();
  const auto error_of = [&](const std::string& schema,
                            const std::string& extra_task_field) {
    io::write_file(path, "{\"schema\": \"" + schema +
                             "\", \"shards\": 1, \"max_retries\": 2, "
                             "\"studies\": [], \"tasks\": [{\"id\": "
                             "\"s0-0of1\", \"study\": 0, \"shard\": \"0/1\", "
                             "\"status\": \"done\"" +
                             extra_task_field + "}]}\n");
    try {
      (void)read_status(dir.str());
    } catch (const io::JsonError& e) {
      return std::string{e.what()};
    }
    return std::string{"<no error>"};
  };
  const std::string v9 = error_of("varbench.campaign.v9", "");
  EXPECT_NE(v9.find(path), std::string::npos) << v9;
  EXPECT_NE(v9.find("varbench.campaign.v9"), std::string::npos) << v9;
  EXPECT_NE(v9.find("varbench.campaign.v1"), std::string::npos) << v9;
  EXPECT_NE(v9.find("varbench.campaign.v2"), std::string::npos) << v9;
  const std::string unknown =
      error_of("varbench.campaign.v2", ", \"gpu_hours\": 3");
  EXPECT_NE(unknown.find("$.tasks[].gpu_hours"), std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find(path), std::string::npos) << unknown;
  EXPECT_EQ(error_of("varbench.campaign.v2", ""), "<no error>");
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
  // Build the three inputs read_status consumes — manifest, queue listing,
  // claim files — as a live coordinator leaves them.
  WorkQueue queue{dir.str()};

  io::Json manifest = io::Json::object();
  manifest.set("schema", io::Json{"varbench.campaign.v1"});
  manifest.set("shards", io::Json{std::uint64_t{4}});
  manifest.set("max_retries", io::Json{std::uint64_t{2}});
  io::Json studies = io::Json::array();
  studies.push_back(
      io::Json::parse(R"({"kind": "variance", "case_study": "demo"})"));
  manifest.set("studies", std::move(studies));
  io::Json tasks = io::Json::array();
  const auto task = [](const char* id, const char* shard, const char* status,
                       double wall, std::uint64_t attempts) {
    io::Json t = io::Json::object();
    t.set("id", io::Json{id});
    t.set("study", io::Json{std::uint64_t{0}});
    t.set("shard", io::Json{shard});
    t.set("status", io::Json{status});
    t.set("attempts", io::Json{attempts});
    t.set("wall_time_ms", io::Json{wall});
    return t;
  };
  tasks.push_back(task("s0-0of4", "0/4", "done", 80.0, 1));
  tasks.push_back(task("s0-1of4", "1/4", "done", 120.0, 2));
  tasks.push_back(task("s0-2of4", "2/4", "pending", 0.0, 1));
  tasks.push_back(task("s0-3of4", "3/4", "pending", 0.0, 1));
  manifest.set("tasks", std::move(tasks));
  io::write_file((fs::path{dir.str()} / "campaign.json").string(),
                 manifest.dump(2) + "\n");

  // One claim stamped by this build's try_claim, one without a stamp (a
  // coordinator predating it): both must surface.
  queue.enqueue(Ticket{"s0-2of4", 0, ""});
  ASSERT_TRUE(queue.try_claim("worker-a").has_value());
  io::write_file((fs::path{dir.str()} / "queue" / "s0-3of4.todo").string(),
                 "{\"task\": \"s0-3of4\", \"attempts\": 1}\n");
  io::write_file((fs::path{dir.str()} / "claims" / "s0-1of4.claim").string(),
                 R"({"task": "s0-1of4", "attempts": 2, "owner": "worker-b"})"
                 "\n");

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
  EXPECT_EQ(status.workers[0].attempt, 3u);  // 2 launches before this one
  EXPECT_FALSE(status.workers[0].running_ms.has_value());
  EXPECT_GE(status.workers[0].heartbeat_age_ms, 0.0);
  EXPECT_EQ(status.workers[1].task_id, "s0-2of4");
  EXPECT_EQ(status.workers[1].owner, "worker-a");
  EXPECT_EQ(status.workers[1].attempt, 1u);
  ASSERT_TRUE(status.workers[1].running_ms.has_value());
  EXPECT_GE(*status.workers[1].running_ms, 0.0);

  // JSON projection carries the same numbers under stable keys.
  const io::Json doc = status_json(status);
  EXPECT_EQ(doc.at("tasks").at("total").as_uint64(), 4u);
  EXPECT_EQ(doc.at("tasks").at("pending").as_uint64(), 2u);
  EXPECT_EQ(doc.at("tasks").at("retries").as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("eta_ms").as_double(), 100.0);
  const auto& workers = doc.at("workers").as_array();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].at("attempt").as_uint64(), 3u);
  EXPECT_EQ(workers[0].find("running_ms"), nullptr);  // no claim stamp
  EXPECT_EQ(workers[1].at("attempt").as_uint64(), 1u);
  EXPECT_GE(workers[1].at("running_ms").as_double(), 0.0);

  // Text rendering names the workers and the ETA.
  const std::string text = render_status_text(status);
  EXPECT_NE(text.find("2/4 task(s) done"), std::string::npos) << text;
  EXPECT_NE(text.find("ETA"), std::string::npos);
  EXPECT_NE(text.find("worker-a: task s0-2of4 attempt 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("worker-b: task s0-1of4 attempt 3"), std::string::npos)
      << text;
}

TEST(ReadStatus, WorkerLineCountsTheLaunchInProgress) {
  // The coordinator logs "launched (attempt N)" with N = the ticket's
  // attempts + 1 and records N in the manifest; status must agree.
  const TempDir dir{"attempt"};
  WorkQueue queue{dir.str()};
  Manifest manifest;
  manifest.studies.push_back(
      io::Json::parse(R"({"kind": "variance", "case_study": "demo"})"));
  manifest.tasks.push_back(TaskRecord{"s0-0of1", 0, "0/1"});
  write_manifest(queue.manifest_path(), manifest);
  queue.enqueue(Ticket{"s0-0of1", 0, ""});
  ASSERT_TRUE(queue.try_claim("worker-a").has_value());

  const CampaignStatus status = read_status(dir.str());
  ASSERT_EQ(status.workers.size(), 1u);
  EXPECT_EQ(status.workers[0].attempt, 1u);
  ASSERT_TRUE(status.workers[0].running_ms.has_value());
  EXPECT_GE(*status.workers[0].running_ms, 0.0);
  EXPECT_EQ(status_json(status).at("workers").as_array()[0].at("attempt")
                .as_uint64(),
            1u);
  EXPECT_NE(render_status_text(status).find("task s0-0of1 attempt 1,"),
            std::string::npos);
}

TEST(ReadStatus, StatusLineCountsRetriesInWords) {
  CampaignStatus status;
  status.dir = "camp";
  status.tasks = 3;
  status.done = 3;
  for (const auto& [retries, words] :
       {std::pair<std::size_t, const char*>{0, "(0 queued), 0 retries\n"},
        {1, "(0 queued), 1 retry\n"},
        {2, "(0 queued), 2 retries\n"}}) {
    status.retries = retries;
    const std::string text = render_status_text(status);
    const std::string line = text.substr(0, text.find('\n') + 1);
    EXPECT_EQ(line,
              std::string{"campaign camp: 3/3 task(s) done, 0 failed, 0 "
                          "pending "} + words)
        << text;
  }
}

}  // namespace
}  // namespace varbench::campaign
