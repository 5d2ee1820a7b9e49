// Deterministic mutation fuzzing of every parser of on-disk state: each
// seed document comes from its format's own writer, each mutant from a few
// rngx-seeded byte edits of it (overwrite, bit flip, insert, erase,
// truncate), and each mutant must either parse or throw io::JsonError —
// no crash, no other exception type. The ASan+UBSan CI job runs it, so an
// out-of-bounds read on hostile bytes fails there too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include <unistd.h>

#include "src/campaign/work_queue.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/metrics/trace_file.h"
#include "src/report/report_spec.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench {
namespace {

namespace fs = std::filesystem;
using study::Cell;
using study::ResultTable;

/// Mutants per parser: enough to reach every branch of the small seeds,
/// few enough that the whole test stays near a second in a Debug build.
constexpr std::size_t kMutantsPerParser = 600;

/// Bytes that steer a JSON parser into its structural paths more often
/// than a uniform byte would.
constexpr std::string_view kJsonBytes = "{}[]\",:.-+eE0123456789tfnu\\ \n";

char random_byte(rngx::Rng& rng) {
  if (rng.bernoulli(0.5)) {
    return kJsonBytes[rng.uniform_index(kJsonBytes.size())];
  }
  return static_cast<char>(rng.uniform_index(256));
}

/// One to four byte edits of `bytes`.
std::string mutate(std::string bytes, rngx::Rng& rng) {
  const std::size_t edits = 1 + rng.uniform_index(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t size = bytes.size();
    switch (rng.uniform_index(5)) {
      case 0:  // overwrite
        if (size > 0) bytes[rng.uniform_index(size)] = random_byte(rng);
        break;
      case 1:  // bit flip
        if (size > 0) {
          bytes[rng.uniform_index(size)] ^=
              static_cast<char>(1u << rng.uniform_index(8));
        }
        break;
      case 2:  // insert
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(
                                         rng.uniform_index(size + 1)),
                     random_byte(rng));
        break;
      case 3:  // erase a run of up to 8 bytes
        if (size > 0) {
          const std::size_t at = rng.uniform_index(size);
          bytes.erase(at, 1 + rng.uniform_index(std::min<std::size_t>(
                                  8, size - at)));
        }
        break;
      default:  // truncate
        bytes.resize(rng.uniform_index(size + 1));
        break;
    }
  }
  return bytes;
}

/// The mutant's bytes as a C string literal, for a failure message.
std::string escaped(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '"' && c != '\\') {
      out += c;
    } else {
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    }
  }
  return out;
}

/// Feed `parse` each seed, then kMutantsPerParser mutants of the seeds
/// (round-robin), from a stream keyed by `name`. A seed must parse; a
/// mutant may parse or throw io::JsonError, and anything else fails.
template <typename Parse>
void fuzz(std::string_view name, const std::vector<std::string>& seeds,
          Parse&& parse) {
  for (const std::string& seed : seeds) {
    ASSERT_NO_THROW(parse(seed)) << name << " rejects its own writer's bytes";
  }
  rngx::Rng rng{rngx::derive_seed(20261020, name)};
  for (std::size_t i = 0; i < kMutantsPerParser; ++i) {
    const std::string mutant = mutate(seeds[i % seeds.size()], rng);
    try {
      parse(mutant);
    } catch (const io::JsonError&) {
      // The one failure a parser of on-disk state may report.
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " mutant " << i << " threw "
                    << typeid(e).name() << ": " << e.what() << "\n  bytes: \""
                    << escaped(mutant) << "\"";
    }
  }
}

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  TempDir()
      : path_{fs::temp_directory_path() /
              ("varbench_parser_fuzz_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// A table with a spec and every column encoding: f64, i64, u64,
/// string-dict and mixed.
ResultTable all_types_table() {
  ResultTable t;
  t.name = "fuzz:all_types";
  t.spec = study::default_spec(study::StudyKind::kFig06DetectionRates);
  t.seed = 0xFFFFFFFFFFFFFFFFULL;
  t.threads = 4;
  t.wall_time_ms = 12.5;
  t.columns = {"seq", "measure", "delta", "big", "label", "mixed"};
  const std::vector<Cell> mixed{
      Cell{},      Cell{true},
      Cell{0.5},   Cell{std::int64_t{-7}},
      Cell{"s\n"}, Cell{std::uint64_t{1} << 63},
  };
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    t.add_row({Cell{std::uint64_t{i}}, Cell{0.25 * static_cast<double>(i)},
               Cell{std::int64_t{-3} * static_cast<std::int64_t>(i)},
               Cell{(std::uint64_t{1} << 63) + i},
               Cell{i % 2 == 0 ? "even" : "odd"}, mixed[i]});
  }
  return t;
}

TEST(ParserFuzz, Json) {
  io::Json doc = io::Json::object();
  doc.set("text", io::Json{"tab\t quote\" slash\\ \xc3\xa9 \xf0\x9f\x98\x80"});
  doc.set("numbers", io::Json{io::Json::Array{
                         io::Json{-1.5e-300}, io::Json{0.1},
                         io::Json{std::uint64_t{18446744073709551615u}},
                         io::Json{std::int64_t{-9007199254740993}}}});
  doc.set("flags", io::Json{io::Json::Array{io::Json{true}, io::Json{false},
                                            io::Json{}}});
  io::Json nested = io::Json::object();
  nested.set("empty_array", io::Json::array());
  nested.set("empty_object", io::Json::object());
  doc.set("nested", std::move(nested));
  fuzz("io::Json::parse", {doc.dump(2), doc.dump()},
       [](const std::string& text) { (void)io::Json::parse(text); });
}

TEST(ParserFuzz, ResultTableJson) {
  fuzz("ResultTable::from_json_text", {all_types_table().to_json_text()},
       [](const std::string& text) {
         (void)ResultTable::from_json_text(text);
       });
}

TEST(ParserFuzz, ResultTableVbt) {
  const TempDir dir;
  const std::string path = dir.file("t.vbt");
  // A load maps the file lazily, so a parsed mutant is also read in full.
  fuzz("ResultTable::load (VBT)",
       {io::columnar::encode_vbt(all_types_table(), true)},
       [&path](const std::string& bytes) {
         io::write_file_atomic(path, bytes);
         (void)ResultTable::load(path).canonical_text();
       });
}

TEST(ParserFuzz, StudySpec) {
  study::StudySpec sharded =
      study::default_spec(study::StudyKind::kFig06DetectionRates);
  sharded.shard = study::ShardSpec{1, 3};
  fuzz("StudySpec::from_json_text",
       {sharded.to_json_text(),
        study::default_spec(study::StudyKind::kFigI6Robustness).to_json_text()},
       [](const std::string& text) {
         (void)study::StudySpec::from_json_text(text);
       });
}

TEST(ParserFuzz, ReportSpec) {
  report::ReportSpec spec;
  spec.columns = {"measure", "delta"};
  spec.group_by = "label";
  spec.seed = 7;
  fuzz("ReportSpec::from_json_text", {spec.to_json_text()},
       [](const std::string& text) {
         (void)report::ReportSpec::from_json_text(text);
       });
}

TEST(ParserFuzz, CampaignManifest) {
  const TempDir dir;
  const std::string path = dir.file("campaign.json");
  campaign::Manifest manifest;
  manifest.shards = 2;
  manifest.max_retries = 1;
  manifest.studies.push_back(
      study::default_spec(study::StudyKind::kFig02Binomial).to_json());
  manifest.tasks.push_back({"s0-0of2", 0, "0/2", campaign::TaskStatus::kDone,
                            1, 12.5});
  manifest.tasks.push_back({"s0-1of2", 0, "1/2",
                            campaign::TaskStatus::kPending, 0, 0.0});
  io::Json metrics = io::Json::object();
  metrics.set("enabled", io::Json{io::Json::Array{io::Json{"exec.chunks"}}});
  manifest.metrics = std::move(metrics);
  campaign::write_manifest(path, manifest);
  fuzz("campaign::read_manifest", {io::read_file(path)},
       [&path](const std::string& bytes) {
         io::write_file_atomic(path, bytes);
         (void)campaign::read_manifest(path);
       });
}

TEST(ParserFuzz, CampaignTicket) {
  const TempDir dir;
  campaign::WorkQueue queue{dir.file("state")};
  queue.enqueue(campaign::Ticket{"s0-0of2", 1, "", 0});
  const std::string todo = io::read_file(dir.file("state/queue/s0-0of2.todo"));
  ASSERT_TRUE(queue.try_claim("coordinator-1").has_value());
  const std::string claim =
      io::read_file(dir.file("state/claims/s0-0of2.claim"));
  const std::string path = dir.file("ticket.claim");
  fuzz("campaign::parse_ticket", {todo, claim},
       [&path](const std::string& bytes) {
         io::write_file_atomic(path, bytes);
         (void)campaign::parse_ticket(path);
       });
}

TEST(ParserFuzz, TraceFile) {
  metrics::TraceFile file;
  file.process = "worker-s0-0of2";
  file.dropped = 2;
  // {start_ns, span, ident, tid, dur_ns}
  file.spans = {metrics::SpanEvent{90, metrics::kCampaignTaskQueued, 77, 0, 0},
                metrics::SpanEvent{100, metrics::kExecRegion, 0, 0, 50},
                metrics::SpanEvent{110, metrics::kExecChunk, 0, 1, 20}};
  file.labels = {{77, "s0-0of2"}};
  fuzz("metrics::parse_trace_file", {metrics::to_json_text(file)},
       [](const std::string& text) {
         (void)metrics::parse_trace_file(text, "fuzz.trace.json");
       });
}

}  // namespace
}  // namespace varbench
