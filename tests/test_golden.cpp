// The golden manifest (tests/golden/study_kinds.json): for each pinned
// spec, the FNV-1a hash (rngx::hash_tag) of its artifact's canonical text
// and its row count, at each pinned thread count. The pins were recorded
// from run_study on the code before a change that had to leave every byte
// where it was, so they are goldens, not self-consistency: a change that
// moves a byte fails here, and the failure names every kind that moved.
// A change that moves bytes on purpose re-records the pins and says so in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "src/io/json.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

TEST(GoldenManifest, PinnedSpecsReproduceTheirCanonicalText) {
  const io::Json manifest = io::Json::parse(
      io::read_file(VARBENCH_GOLDEN_DIR "/study_kinds.json"));
  ASSERT_EQ(manifest.at("schema").as_string(), "varbench.golden.v1");
  const io::Json::Array& entries = manifest.at("entries").as_array();
  ASSERT_FALSE(entries.empty());
  std::string moved;
  for (const io::Json& entry : entries) {
    StudySpec spec = StudySpec::from_json(entry.at("spec"));
    ASSERT_TRUE(spec.shard.is_unsharded()) << to_string(spec.kind);
    for (const io::Json& pin : entry.at("pins").as_array()) {
      spec.threads = pin.at("threads").as_uint64();
      const ResultTable t = run_study(spec);
      const std::string hash = hex(rngx::hash_tag(t.canonical_text()));
      const std::uint64_t rows = t.rows.size();
      const std::string& want_hash = pin.at("canonical_hash").as_string();
      const std::uint64_t want_rows = pin.at("rows").as_uint64();
      if (hash != want_hash || rows != want_rows) {
        moved += "\n  " + std::string{to_string(spec.kind)} + " at " +
                 std::to_string(spec.threads) + " threads: " + hash + ", " +
                 std::to_string(rows) + " rows (pinned " + want_hash + ", " +
                 std::to_string(want_rows) + " rows)";
      }
    }
  }
  EXPECT_TRUE(moved.empty()) << "kinds whose artifacts moved:" << moved;
}

}  // namespace
}  // namespace varbench::study
