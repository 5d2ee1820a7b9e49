// The golden manifests. tests/golden/study_kinds.json: for each pinned
// spec, the FNV-1a hash (rngx::hash_tag) of its artifact's canonical text
// and its row count, at each pinned thread count and, where a pin names
// one, for that shard ("i/N") alone. Every kind has a spec, and every
// shardable kind has shard pins. The pins were recorded from run_study on
// the code before a change that had to leave every byte where it was, so
// they are goldens, not self-consistency: a change that moves a byte fails
// here, and the failure names every kind that moved.
// tests/golden/summaries.json: for one tiny spec of every kind, the hash
// of its summary blocks' to_json_text (in order) and the block count,
// recorded when the summaries became tables. A change that moves bytes or
// summary cells on purpose re-records the pins and says so in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/io/json.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_kinds.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// What a pin records of one run: a hash and a count.
using Measure = std::function<std::pair<std::uint64_t, std::uint64_t>(
    const ResultTable&)>;

/// Runs every (spec, threads, shard) pin of the manifest `file` and
/// returns one line per pin whose measure moved from its pinned `hash_key`
/// and `count_key` values, naming the kind. Appends each entry's kind to
/// `kinds`, and the kind of each shard pin to `sharded`.
std::string moved_pins(const std::string& file, std::string_view schema,
                       const std::string& hash_key,
                       const std::string& count_key, const Measure& measure,
                       std::vector<StudyKind>& kinds,
                       std::vector<StudyKind>& sharded) {
  const io::Json manifest = io::Json::parse(io::read_file(file));
  EXPECT_EQ(manifest.at("schema").as_string(), schema);
  const io::Json::Array& entries = manifest.at("entries").as_array();
  EXPECT_FALSE(entries.empty());
  std::string moved;
  for (const io::Json& entry : entries) {
    StudySpec spec = StudySpec::from_json(entry.at("spec"));
    EXPECT_TRUE(spec.shard.is_unsharded()) << to_string(spec.kind);
    kinds.push_back(spec.kind);
    for (const io::Json& pin : entry.at("pins").as_array()) {
      spec.threads = pin.at("threads").as_uint64();
      const io::Json* shard = pin.find("shard");
      spec.shard = shard != nullptr ? ShardSpec::parse(shard->as_string())
                                    : ShardSpec{};
      if (shard != nullptr) sharded.push_back(spec.kind);
      const auto [hash, count] = measure(run_study(spec));
      const std::string& want_hash = pin.at(hash_key).as_string();
      const std::uint64_t want_count = pin.at(count_key).as_uint64();
      if (hex(hash) != want_hash || count != want_count) {
        moved += "\n  " + std::string{to_string(spec.kind)} + " at " +
                 std::to_string(spec.threads) + " threads" +
                 (shard != nullptr ? ", shard " + spec.shard.label() : "") +
                 ": " + hex(hash) + ", " + std::to_string(count) + " " +
                 count_key + " (pinned " + want_hash + ", " +
                 std::to_string(want_count) + ")";
      }
    }
  }
  return moved;
}

bool has(const std::vector<StudyKind>& kinds, StudyKind kind) {
  return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

TEST(GoldenManifest, PinnedSpecsReproduceTheirCanonicalText) {
  std::vector<StudyKind> kinds;
  std::vector<StudyKind> sharded;
  const std::string moved = moved_pins(
      VARBENCH_GOLDEN_DIR "/study_kinds.json", "varbench.golden.v1",
      "canonical_hash", "rows",
      [](const ResultTable& t) {
        return std::pair<std::uint64_t, std::uint64_t>{
            rngx::hash_tag(t.canonical_text()), t.rows.size()};
      },
      kinds, sharded);
  EXPECT_TRUE(moved.empty()) << "kinds whose artifacts moved:" << moved;
  for (const StudyKindDef& def : study_kinds()) {
    EXPECT_TRUE(has(kinds, def.kind)) << def.name << " has no artifact pin";
    EXPECT_EQ(has(sharded, def.kind), def.shardable)
        << def.name << ": shard pins must exist exactly for shardable kinds";
  }
}

TEST(GoldenManifest, EveryKindsSummaryBlocksArePinned) {
  std::vector<StudyKind> kinds;
  std::vector<StudyKind> sharded;
  const std::string moved = moved_pins(
      VARBENCH_GOLDEN_DIR "/summaries.json", "varbench.golden_summaries.v1",
      "summary_hash", "blocks",
      [](const ResultTable& t) {
        const auto blocks = kind_def(t.spec.value().kind).summarize(t);
        std::string text;
        for (const ResultTable& block : blocks) text += block.to_json_text();
        return std::pair<std::uint64_t, std::uint64_t>{rngx::hash_tag(text),
                                                       blocks.size()};
      },
      kinds, sharded);
  EXPECT_TRUE(moved.empty()) << "kinds whose summaries moved:" << moved;
  for (const StudyKindDef& def : study_kinds()) {
    EXPECT_TRUE(has(kinds, def.kind)) << def.name << " has no summary pin";
  }
}

}  // namespace
}  // namespace varbench::study
