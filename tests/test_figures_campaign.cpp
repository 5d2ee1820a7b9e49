// The acceptance path of the figure refactor: a single campaign spec list
// covering figure kinds completes through the coordinator, resumes after a
// lost artifact, and its merged outputs are byte-identical to the
// unsharded runs AND render byte-identically through the report engine at
// any thread count (figures behave like every other ResultTable,
// including group_by over figure axes).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/io/json.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/summary.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::campaign {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_figcamp_" + tag + "_" +
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

study::StudySpec tiny_fig06() {
  auto spec = study::default_spec(
      study::StudyKind::kFig06DetectionRates);
  spec.seed = 20260727;
  spec.repetitions = 3;
  spec.figure.tasks = {"cifar10_vgg11"};
  spec.figure.k = 5;
  spec.figure.resamples = 10;
  spec.figure.p_grid = {0.5, 0.9};
  return spec;
}

std::vector<study::StudySpec> figure_campaign_specs() {
  return {tiny_fig06(),
          study::default_spec(
              study::StudyKind::kFigC1SampleSize)};
}

CampaignConfig figure_config(const std::string& dir) {
  CampaignConfig cfg;
  cfg.dir = dir;
  cfg.shards = 2;
  cfg.workers = 2;
  cfg.stale_after = 10min;
  return cfg;
}

std::string render_markdown(const std::string& artifact_path,
                            std::size_t threads,
                            const std::string& group_by = "") {
  io::Json spec_doc = io::Json::object();
  if (!group_by.empty()) spec_doc.set("group_by", io::Json{group_by});
  const auto spec = report::ReportSpec::from_json(spec_doc);
  const exec::ExecContext ctx{threads};
  const auto report =
      report::summarize(ctx, report::load_artifact(artifact_path), spec);
  return report::render(report, report::Format::kMarkdown);
}

TEST(FiguresCampaign, CompletesResumesAndReportsByteIdentically) {
  TempDir dir{"e2e"};
  const auto specs = figure_campaign_specs();

  const auto report =
      run_campaign(figure_config(dir.str()), specs, in_process_launcher());
  ASSERT_TRUE(report.ok()) << (report.failures.empty()
                                   ? "incomplete"
                                   : report.failures.front());
  ASSERT_EQ(report.merged_outputs.size(), specs.size());

  // Every merged artifact is byte-identical to its unsharded run.
  std::vector<std::string> unsharded;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    unsharded.push_back(study::run_study(specs[k]).canonical_text());
    EXPECT_EQ(io::read_file(report.merged_outputs[k]), unsharded[k])
        << report.merged_outputs[k];
  }

  // Resume fills exactly the gap left by a deleted shard artifact.
  fs::path gap;
  for (const auto& entry :
       fs::directory_iterator{fs::path{dir.str()} / "artifacts"}) {
    if (entry.path().filename().string().rfind("s0-", 0) == 0) {
      gap = entry.path();
      break;
    }
  }
  ASSERT_FALSE(gap.empty());
  fs::remove(gap);
  CampaignConfig resume_cfg = figure_config(dir.str());
  resume_cfg.resume = true;
  const auto resumed =
      run_campaign(resume_cfg, specs, in_process_launcher());
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.launched, 1u);
  EXPECT_EQ(resumed.reused, 3u);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(io::read_file(resumed.merged_outputs[k]), unsharded[k]);
  }

  // The figure artifact reports like any other ResultTable: markdown bytes
  // are invariant to thread count and to sharded-vs-unsharded input, and
  // group_by works over figure axes.
  TempDir scratch{"report"};
  const std::string direct = scratch.str() + "/direct.json";
  io::write_file(direct, unsharded[0]);
  const std::string merged_md = render_markdown(report.merged_outputs[0], 4);
  EXPECT_EQ(merged_md, render_markdown(direct, 1));
  const std::string grouped =
      render_markdown(report.merged_outputs[0], 3, "estimator");
  EXPECT_EQ(grouped, render_markdown(direct, 1, "estimator"));
  EXPECT_NE(grouped.find("ideal"), std::string::npos);
  EXPECT_NE(grouped.find("fix_all"), std::string::npos);

  // The whole state dir renders as one multi-report document with the
  // campaign's wall-time provenance attached.
  const auto dir_artifacts = report::load_artifact_dir(dir.str());
  EXPECT_EQ(dir_artifacts.studies.size(), specs.size());
  ASSERT_TRUE(dir_artifacts.provenance.has_value());
  EXPECT_EQ(dir_artifacts.provenance->tasks, 4u);
}

TEST(FiguresCampaign, PlanShardsFigureKinds) {
  const auto tasks = plan_tasks(figure_campaign_specs(), 3);
  ASSERT_EQ(tasks.size(), 6u);
  EXPECT_EQ(tasks[0].spec.kind, study::StudyKind::kFig06DetectionRates);
  EXPECT_EQ(tasks[5].spec.shard, (study::ShardSpec{2, 3}));
}

}  // namespace
}  // namespace varbench::campaign
