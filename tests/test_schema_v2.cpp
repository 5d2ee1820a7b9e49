// Schema evolution: readers accept both result_table/campaign v1 (the
// written format) and the reserved-forward v2, whose contract is strict
// tolerance — same layout, but any field this build does not know is
// rejected with a message naming the offending JSON path. Anything newer
// stays an "unsupported schema" error listing both readable versions.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "src/io/json.h"
#include "src/report/artifact.h"
#include "src/study/result_table.h"

namespace varbench::study {
namespace {

namespace fs = std::filesystem;

ResultTable tiny_table() {
  ResultTable t;
  t.name = "schema-evolution-probe";
  t.seed = 7;
  t.columns = {"seq", "measure"};
  t.add_row({Cell{std::size_t{0}}, Cell{0.25}});
  t.add_row({Cell{std::size_t{1}}, Cell{0.75}});
  return t;
}

/// The table's JSON document, as an artifact file holds it.
io::Json as_doc(const ResultTable& t) {
  return io::Json::parse(t.to_json_text());
}

io::Json as_v2(const ResultTable& t) {
  io::Json doc = as_doc(t);
  doc.set("schema", io::Json{"varbench.result_table.v2"});
  return doc;
}

void expect_load_fails_mentioning(const io::Json& doc,
                                  const std::string& needle) {
  try {
    (void)ResultTable::from_json(doc);
    FAIL() << "accepted: " << doc.dump();
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "error '" << e.what() << "' does not mention '" << needle << "'";
  }
}

TEST(SchemaV2, V2ArtifactsLoadLikeV1) {
  const ResultTable t = tiny_table();
  const ResultTable parsed = ResultTable::from_json(as_v2(t));
  EXPECT_EQ(parsed, t);
}

TEST(SchemaV2, UnknownFieldsAreRejectedWithTheirPath) {
  {
    io::Json doc = as_v2(tiny_table());
    doc.set("frobnicate", io::Json{1});
    expect_load_fails_mentioning(doc, "$.frobnicate");
  }
  {
    io::Json doc = as_v2(tiny_table());
    doc.find("meta")->set("future_field", io::Json{"x"});
    expect_load_fails_mentioning(doc, "$.meta.future_field");
  }
  {
    io::Json doc = as_v2(tiny_table());
    doc.find("provenance")->set("hostname", io::Json{"box"});
    expect_load_fails_mentioning(doc, "$.provenance.hostname");
  }
  // v1 keeps its historical leniency: the same extra field loads fine.
  {
    io::Json doc = as_doc(tiny_table());
    doc.set("frobnicate", io::Json{1});
    EXPECT_EQ(ResultTable::from_json(doc), tiny_table());
  }
}

TEST(SchemaV2, NewerSchemasStayUnsupportedNamingBothReadableVersions) {
  io::Json doc = as_doc(tiny_table());
  doc.set("schema", io::Json{"varbench.result_table.v3"});
  try {
    (void)ResultTable::from_json(doc);
    FAIL() << "accepted v3";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("result_table.v1"), std::string::npos) << what;
    EXPECT_NE(what.find("result_table.v2"), std::string::npos) << what;
  }
}

// ------------------------------------------------- campaign manifest v2

class TempStateDir {
 public:
  TempStateDir() : path_{fs::temp_directory_path() / "varbench_schema_v2"} {
    fs::remove_all(path_);
    fs::create_directories(path_ / "merged");
  }
  ~TempStateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string manifest_text(const std::string& schema,
                          const std::string& extra_task_field) {
  return std::string{"{\"schema\": \""} + schema +
         "\", \"shards\": 1, \"max_retries\": 2, \"studies\": "
         "[{\"kind\": \"variance\", \"case_study\": \"cifar10_vgg11\"}], "
         "\"tasks\": [{\"id\": \"s0-0of1\", \"study\": 0, \"shard\": "
         "\"0/1\", \"status\": \"done\", \"attempts\": 1, \"wall_time_ms\": "
         "12.5" +
         extra_task_field + "}]}";
}

TEST(SchemaV2, CampaignManifestV2ReadsAndRejectsUnknownFieldsWithPath) {
  TempStateDir dir;
  io::write_file((dir.path() / "merged" / "probe.json").string(),
                 tiny_table().to_json_text());

  io::write_file((dir.path() / "campaign.json").string(),
                 manifest_text("varbench.campaign.v2", ""));
  const auto loaded = report::load_artifact_dir(dir.path().string());
  ASSERT_TRUE(loaded.provenance.has_value());
  EXPECT_EQ(loaded.provenance->tasks, 1u);

  io::write_file((dir.path() / "campaign.json").string(),
                 manifest_text("varbench.campaign.v2",
                               ", \"gpu_hours\": 3"));
  try {
    (void)report::load_artifact_dir(dir.path().string());
    FAIL() << "accepted unknown manifest field";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("$.tasks[].gpu_hours"),
              std::string::npos)
        << e.what();
  }

  io::write_file((dir.path() / "campaign.json").string(),
                 manifest_text("varbench.campaign.v3", ""));
  try {
    (void)report::load_artifact_dir(dir.path().string());
    FAIL() << "accepted v3 manifest";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("campaign.v1"), std::string::npos) << what;
    EXPECT_NE(what.find("campaign.v2"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace varbench::study
