// Campaign coordinator contract: shard tasks flow through the
// filesystem-backed work queue (atomic-rename claims, heartbeat staleness),
// failures retry up to the bound, and whatever the worker-failure history,
// the merged artifact is byte-identical to the unsharded run. Worker
// failures are injected through the WorkerLauncher abstraction, so every
// scheduling path runs in-process.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/io/json.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"

namespace varbench::campaign {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// A fresh state directory per test, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_campaign_" + tag + "_" +
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

/// The fast study of test_study_shard, reused for the campaign path.
study::StudySpec tiny_compare_spec() {
  study::StudySpec spec;
  spec.kind = study::StudyKind::kCompare;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260727;
  spec.repetitions = 5;
  spec.figure.num_resamples = 50;
  return spec;
}

CampaignConfig quick_config(const std::string& dir) {
  CampaignConfig cfg;
  cfg.dir = dir;
  cfg.shards = 3;
  cfg.workers = 2;
  cfg.stale_after = 10min;  // never stale unless a test forces it
  cfg.poll_interval = 1ms;
  return cfg;
}

class FinishedHandle : public WorkerHandle {
 public:
  explicit FinishedHandle(int code) : code_{code} {}
  bool running() override { return false; }
  int exit_code() override { return code_; }

 private:
  int code_;
};

/// Wraps in_process_launcher with per-task launch counting and optional
/// injected failures for the first `failures_per_task` launches of a task.
struct SpyLauncher {
  std::map<std::string, std::size_t> launches;
  std::map<std::string, std::size_t> failures_per_task;
  int failure_exit_code = 1;
  bool fail_by_missing_artifact = false;  // exit 0 without writing anything

  WorkerLauncher launcher() {
    return [this](const CampaignTask& task, const std::string& spec_path,
                  const std::string& artifact_path,
                  const std::string& log_path)
               -> std::unique_ptr<WorkerHandle> {
      const std::size_t launch = ++launches[task.id];
      const auto it = failures_per_task.find(task.id);
      if (it != failures_per_task.end() && launch <= it->second) {
        io::write_file(log_path, "injected failure\n");
        return std::make_unique<FinishedHandle>(
            fail_by_missing_artifact ? 0 : failure_exit_code);
      }
      return in_process_launcher()(task, spec_path, artifact_path, log_path);
    };
  }
};

std::string merged_path_of(const CampaignReport& report) {
  EXPECT_EQ(report.merged_outputs.size(), 1u);
  return report.merged_outputs.empty() ? std::string{}
                                       : report.merged_outputs.front();
}

std::string unsharded_canonical(const study::StudySpec& spec) {
  return study::run_study(spec).canonical_text();
}

// ----------------------------------------------------------------- plan

TEST(CampaignPlan, ShardsEveryStudy) {
  const auto tasks = plan_tasks({tiny_compare_spec(), tiny_compare_spec()}, 3);
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks[0].id, "s0-0of3");
  EXPECT_EQ(tasks[5].id, "s1-2of3");
  EXPECT_EQ(tasks[4].spec.shard, (study::ShardSpec{1, 3}));
  EXPECT_EQ(tasks[4].study_index, 1u);
}

TEST(CampaignPlan, HpoStudiesGetOneTask) {
  study::StudySpec hpo = tiny_compare_spec();
  hpo.kind = study::StudyKind::kHpo;
  hpo.repetitions = 1;
  const auto tasks = plan_tasks({tiny_compare_spec(), hpo}, 4);
  ASSERT_EQ(tasks.size(), 5u);
  EXPECT_EQ(tasks[4].id, "s1-0of1");
  EXPECT_TRUE(tasks[4].spec.shard.is_unsharded());
}

TEST(CampaignPlan, RejectsEmptyAndZeroShards) {
  EXPECT_THROW((void)plan_tasks({}, 2), std::invalid_argument);
  EXPECT_THROW((void)plan_tasks({tiny_compare_spec()}, 0),
               std::invalid_argument);
}

// ----------------------------------------------------------- work queue

TEST(WorkQueueTest, ClaimIsExclusiveAndRoundTrips) {
  const TempDir dir{"queue"};
  WorkQueue q{dir.str()};
  q.enqueue(Ticket{"t1", 2, ""});
  EXPECT_TRUE(q.is_queued("t1"));

  auto claim = q.try_claim("me");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->task_id, "t1");
  EXPECT_EQ(claim->attempts, 2u);
  EXPECT_EQ(claim->owner, "me");
  EXPECT_FALSE(q.is_queued("t1"));
  EXPECT_TRUE(q.is_claimed("t1"));
  // The queue is empty now: a second claimant gets nothing.
  EXPECT_FALSE(q.try_claim("other").has_value());

  q.release_for_retry(*claim, 3);
  EXPECT_TRUE(q.is_queued("t1"));
  EXPECT_FALSE(q.is_claimed("t1"));
  auto reclaim = q.try_claim("other");
  ASSERT_TRUE(reclaim.has_value());
  EXPECT_EQ(reclaim->attempts, 3u);
  q.complete(*reclaim);
  EXPECT_FALSE(q.is_claimed("t1"));
}

TEST(WorkQueueTest, StaleClaimsAreRequeuedFresshOnesKept) {
  const TempDir dir{"stale"};
  WorkQueue q{dir.str()};
  q.enqueue(Ticket{"old", 0, ""});
  q.enqueue(Ticket{"fresh", 0, ""});
  auto old_claim = q.try_claim("ghost");   // "fresh" sorts after "old"
  auto fresh_claim = q.try_claim("me");
  ASSERT_TRUE(old_claim.has_value());
  ASSERT_TRUE(fresh_claim.has_value());
  ASSERT_EQ(old_claim->task_id, "fresh");  // lexicographic claim order
  ASSERT_EQ(fresh_claim->task_id, "old");

  // Age the ghost's claim far past any threshold; keep ours heartbeating.
  const fs::path ghost_claim = fs::path{dir.str()} / "claims" / "fresh.claim";
  // varlint: allow(no-wallclock) -- backdating a claim heartbeat to fake a
  // dead coordinator is the scenario under test.
  const auto long_ago = fs::file_time_type::clock::now() - 1h;
  fs::last_write_time(ghost_claim, long_ago);
  q.heartbeat(*fresh_claim);

  const auto reclaimed = q.requeue_stale_claims(1min, "me");
  ASSERT_EQ(reclaimed.size(), 1u);
  EXPECT_EQ(reclaimed[0], "fresh");
  EXPECT_TRUE(q.is_queued("fresh"));
  EXPECT_TRUE(q.is_claimed("old"));  // ours, heartbeaten, untouched
}

// ----------------------------------------------------------- happy path

TEST(Campaign, MergedArtifactMatchesUnshardedRunByteForByte) {
  const TempDir dir{"happy"};
  const auto spec = tiny_compare_spec();
  const auto report =
      run_campaign(quick_config(dir.str()), {spec}, in_process_launcher());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.tasks, 3u);
  EXPECT_EQ(report.launched, 3u);
  EXPECT_EQ(report.reused, 0u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));

  // The manifest records every task as done, with its wall-time provenance
  // (the data future autoscaling hints and `varbench report <dir>` read).
  const io::Json manifest =
      io::Json::parse(io::read_file(WorkQueue{dir.str()}.manifest_path()));
  for (const io::Json& task : manifest.at("tasks").as_array()) {
    EXPECT_EQ(task.at("status").as_string(), "done");
    EXPECT_GT(task.at("wall_time_ms").as_double(), 0.0);
  }
}

TEST(Campaign, MultiStudyCampaignMergesEachStudy) {
  const TempDir dir{"multi"};
  auto spec_a = tiny_compare_spec();
  auto spec_b = tiny_compare_spec();
  spec_b.seed = 7;
  auto cfg = quick_config(dir.str());
  cfg.shards = 2;
  const auto report =
      run_campaign(cfg, {spec_a, spec_b}, in_process_launcher());
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.merged_outputs.size(), 2u);
  EXPECT_EQ(io::read_file(report.merged_outputs[0]),
            unsharded_canonical(spec_a));
  EXPECT_EQ(io::read_file(report.merged_outputs[1]),
            unsharded_canonical(spec_b));
}

// -------------------------------------------------------- failure paths

TEST(Campaign, NonzeroWorkerExitRetriesThenSucceeds) {
  const TempDir dir{"flaky"};
  SpyLauncher spy;
  spy.failures_per_task["s0-1of3"] = 2;  // first two launches exit nonzero
  auto cfg = quick_config(dir.str());
  cfg.max_retries = 2;
  const auto spec = tiny_compare_spec();
  const auto report = run_campaign(cfg, {spec}, spy.launcher());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.retried, 2u);
  EXPECT_EQ(spy.launches["s0-1of3"], 3u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

TEST(Campaign, ExhaustedRetriesFailCleanlyWithActionableError) {
  const TempDir dir{"dead"};
  SpyLauncher spy;
  spy.failures_per_task["s0-0of3"] = 100;  // never succeeds
  auto cfg = quick_config(dir.str());
  cfg.max_retries = 1;
  const auto report =
      run_campaign(cfg, {tiny_compare_spec()}, spy.launcher());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(spy.launches["s0-0of3"], 2u);  // first attempt + one retry
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("s0-0of3"), std::string::npos);
  EXPECT_NE(report.failures[0].find("exited with code 1"), std::string::npos);
  EXPECT_NE(report.failures[0].find("log:"), std::string::npos);
  // The healthy shards still completed and left reusable artifacts.
  EXPECT_EQ(report.completed, 2u);
  EXPECT_TRUE(report.merged_outputs.empty());
}

TEST(Campaign, SilentWorkerWithoutArtifactIsRetriedAndReported) {
  const TempDir dir{"silent"};
  SpyLauncher spy;
  spy.failures_per_task["s0-2of3"] = 100;
  spy.fail_by_missing_artifact = true;  // exit 0, never writes the artifact
  auto cfg = quick_config(dir.str());
  cfg.max_retries = 1;
  const auto report =
      run_campaign(cfg, {tiny_compare_spec()}, spy.launcher());
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("wrote no artifact"), std::string::npos);
}

TEST(Campaign, HungWorkerIsKilledAfterTaskTimeoutAndRetried) {
  // Reports running() forever until the coordinator kills it.
  class HungHandle : public WorkerHandle {
   public:
    bool running() override { return !killed_; }
    int exit_code() override { return 137; }
    void kill() override { killed_ = true; }

   private:
    bool killed_ = false;
  };
  const TempDir dir{"hung"};
  std::size_t hangs = 0;
  const WorkerLauncher launcher =
      [&](const CampaignTask& task, const std::string& spec_path,
          const std::string& artifact_path,
          const std::string& log_path) -> std::unique_ptr<WorkerHandle> {
    if (task.id == "s0-0of3" && hangs == 0) {
      ++hangs;
      return std::make_unique<HungHandle>();
    }
    return in_process_launcher()(task, spec_path, artifact_path, log_path);
  };
  auto cfg = quick_config(dir.str());
  cfg.task_timeout = 20ms;
  const auto spec = tiny_compare_spec();
  const auto report = run_campaign(cfg, {spec}, launcher);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(hangs, 1u);
  EXPECT_EQ(report.retried, 1u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

TEST(Campaign, StaleClaimFromCrashedWorkerIsReclaimed) {
  const TempDir dir{"crashed"};
  auto cfg = quick_config(dir.str());
  cfg.stale_after = 10ms;
  // A previous coordinator crashed mid-flight: its claim is still on disk
  // with a heartbeat that stopped long ago.
  WorkQueue q{dir.str()};
  q.enqueue(Ticket{"s0-0of3", 0, "ghost"});
  auto ghost = q.try_claim("ghost");
  ASSERT_TRUE(ghost.has_value());
  // varlint: allow(no-wallclock) -- backdating the ghost's heartbeat is the
  // crash scenario under test.
  const auto stopped_long_ago = fs::file_time_type::clock::now() - 1h;
  fs::last_write_time(fs::path{dir.str()} / "claims" / "s0-0of3.claim",
                      stopped_long_ago);

  const auto spec = tiny_compare_spec();
  const auto report =
      run_campaign(cfg, {spec}, in_process_launcher());
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.reclaimed_stale, 1u);
  EXPECT_EQ(report.launched, 3u);  // the reclaimed task ran here after all
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

TEST(Campaign, DuplicateShardArtifactIsDiscardedAndRerun) {
  const TempDir dir{"duplicate"};
  const auto spec = tiny_compare_spec();
  auto cfg = quick_config(dir.str());
  ASSERT_TRUE(run_campaign(cfg, {spec}, in_process_launcher()).ok());

  // Clobber shard 1's artifact with a copy of shard 0's — a "duplicate
  // shard" as merge would see it — and drop the merged output.
  WorkQueue q{dir.str()};
  fs::copy_file(q.artifact_path("s0-0of3"), q.artifact_path("s0-1of3"),
                fs::copy_options::overwrite_existing);
  fs::remove_all(q.merged_dir());

  SpyLauncher spy;
  cfg.resume = true;
  const auto report = run_campaign(cfg, {spec}, spy.launcher());
  EXPECT_TRUE(report.ok());
  // Only the clobbered shard re-ran; the other two artifacts were reused.
  EXPECT_EQ(report.launched, 1u);
  EXPECT_EQ(spy.launches.size(), 1u);
  EXPECT_EQ(spy.launches.count("s0-1of3"), 1u);
  EXPECT_EQ(report.reused, 2u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

// --------------------------------------------------------------- resume

TEST(Campaign, ResumeFillsOnlyTheGap) {
  const TempDir dir{"resume"};
  const auto spec = tiny_compare_spec();
  auto cfg = quick_config(dir.str());
  ASSERT_TRUE(run_campaign(cfg, {spec}, in_process_launcher()).ok());

  WorkQueue q{dir.str()};
  fs::remove(q.artifact_path("s0-2of3"));

  SpyLauncher spy;
  cfg.resume = true;
  const auto report = run_campaign(cfg, {spec}, spy.launcher());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.launched, 1u);
  EXPECT_EQ(report.reused, 2u);
  EXPECT_EQ(spy.launches.count("s0-2of3"), 1u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

TEST(Campaign, FullyCompleteResumeLaunchesNothingAndRestoresMergedOutput) {
  const TempDir dir{"noop"};
  const auto spec = tiny_compare_spec();
  auto cfg = quick_config(dir.str());
  ASSERT_TRUE(run_campaign(cfg, {spec}, in_process_launcher()).ok());
  WorkQueue q{dir.str()};
  fs::remove_all(q.merged_dir());  // only the merged output is gone

  SpyLauncher spy;
  cfg.resume = true;
  const auto report = run_campaign(cfg, {spec}, spy.launcher());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.launched, 0u);
  EXPECT_EQ(report.reused, 3u);
  EXPECT_EQ(io::read_file(merged_path_of(report)), unsharded_canonical(spec));
}

TEST(Campaign, InitializedDirRequiresResumeFlag) {
  const TempDir dir{"guard"};
  const auto spec = tiny_compare_spec();
  auto cfg = quick_config(dir.str());
  ASSERT_TRUE(run_campaign(cfg, {spec}, in_process_launcher()).ok());
  EXPECT_THROW((void)run_campaign(cfg, {spec}, in_process_launcher()),
               io::JsonError);
}

TEST(Campaign, ResumeRejectsMismatchedSpecOrShardCount) {
  const TempDir dir{"mismatch"};
  const auto spec = tiny_compare_spec();
  auto cfg = quick_config(dir.str());
  ASSERT_TRUE(run_campaign(cfg, {spec}, in_process_launcher()).ok());

  cfg.resume = true;
  auto other = spec;
  other.seed += 1;
  EXPECT_THROW((void)run_campaign(cfg, {other}, in_process_launcher()),
               io::JsonError);
  auto bad_shards = cfg;
  bad_shards.shards = 5;
  EXPECT_THROW((void)run_campaign(bad_shards, {spec}, in_process_launcher()),
               io::JsonError);
}

// ----------------------------------------------------------- subprocess

#ifndef _WIN32
TEST(SubprocessTest, CapturesExitCodeAndLog) {
  const TempDir dir{"subprocess"};
  const std::string log = dir.str() + "/out.log";
  auto ok = Subprocess::spawn({"/bin/sh", "-c", "echo hello-worker"}, log);
  EXPECT_EQ(ok.wait(), 0);
  EXPECT_NE(io::read_file(log).find("hello-worker"), std::string::npos);

  auto failing = Subprocess::spawn({"/bin/sh", "-c", "exit 3"}, log);
  while (failing.running()) {
  }
  EXPECT_EQ(failing.exit_code(), 3);

  auto missing = Subprocess::spawn({"/nonexistent-binary-xyz"}, log);
  EXPECT_EQ(missing.wait(), 127);
}
#endif

}  // namespace
}  // namespace varbench::campaign
