// Artifact I/O throughput: the JSON text artifact vs the VBT1 binary
// columnar artifact (src/io/columnar/, docs/artifacts.md) on the three
// paths reports and campaigns actually exercise — save, load, and
// multi-shard merge — at row counts where artifact I/O dominates
// (10⁵–10⁶ raw measures).
//
// For the binary format, `load` is ResultTable::load — map, validate and
// adopt the column blocks, so no cell is decoded — and `open` is the bare
// MappedTable::open plus a scan of one f64 column through its span.
//
// Knobs:
//   VARBENCH_ROWS    rows in the benchmark table (default 1000000)
//   VARBENCH_SHARDS  shard count for the merge path (default 4)
//   VARBENCH_REPS    timed repetitions per operation; min is reported
//                    (default 3)
//   VARBENCH_OUT     directory for scratch artifacts (default: a fresh
//                    directory under the system temp dir, removed on exit)
//
// Prints a human summary plus one trajectory-entry JSON object —
// bench/BENCH_artifact_io.json keeps one such entry per recorded run so
// the speedups are tracked across PRs.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"

namespace {

using namespace varbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Min wall time of `reps` runs of `fn` — the usual noise floor estimate.
template <typename Fn>
double best_of(std::size_t reps, Fn&& fn) {
  double best = 0.0;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    const double s = seconds_since(start);
    if (i == 0 || s < best) best = s;
  }
  return best;
}

constexpr const char* kSources[] = {"init", "data_order", "dropout",
                                    "data_split", "numerical"};

/// A variance-study-shaped table: seq + source + four f64 measure columns.
study::ResultTable make_table(std::size_t rows, study::ShardSpec shard,
                              std::size_t seq_begin) {
  study::ResultTable t;
  t.name = "bench:artifact_io";
  t.seed = 42;
  t.shard = shard;
  t.columns = {"seq", "source", "accuracy", "loss", "wall_s", "epochs"};
  rngx::Rng rng{shard.index + 1};
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t seq = seq_begin + i;
    t.add_row({study::Cell{std::uint64_t{seq}},
               study::Cell{std::string{kSources[seq % 5]}},
               study::Cell{rng.normal(0.87, 0.02)},
               study::Cell{rng.normal(0.4, 0.05)},
               study::Cell{rng.normal(120.0, 8.0)},
               study::Cell{std::uint64_t{10 + seq % 3}}});
  }
  return t;
}

struct PathTimes {
  double save_s = 0.0;
  double load_s = 0.0;
  double merge_s = 0.0;  // load all shards + merge_result_tables
  std::uintmax_t bytes = 0;
};

}  // namespace

int main() {
  // VARBENCH_ROWS / VARBENCH_SHARDS are bespoke to this harness; the
  // shared knobs come from the one BenchSpec parse (bench/bench_spec.h).
  const std::size_t rows = benchutil::env_size("VARBENCH_ROWS", 1'000'000);
  const std::size_t shards = benchutil::env_size("VARBENCH_SHARDS", 4);
  const std::size_t reps = benchutil::BenchSpec::env().reps.value_or(3);
  const char* out_env = std::getenv("VARBENCH_OUT");
  const fs::path dir =
      out_env != nullptr && *out_env != '\0'
          ? fs::path{out_env}
          : fs::temp_directory_path() / "varbench_bench_artifact_io";
  fs::create_directories(dir);

  std::printf("artifact I/O bench: %zu rows, %zu merge shards\n", rows,
              shards);
  const study::ResultTable table = make_table(rows, study::ShardSpec{}, 0);

  // Shards for the merge path (equal contiguous seq slices).
  std::vector<study::ResultTable> shard_tables;
  const std::size_t per = (rows + shards - 1) / shards;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t begin = i * per;
    const std::size_t count = begin < rows ? std::min(per, rows - begin) : 0;
    shard_tables.push_back(
        make_table(count, study::ShardSpec{i, shards}, begin));
  }

  PathTimes json, vbt;
  double vbt_open_s = 0.0;

  for (const bool binary : {false, true}) {
    PathTimes& t = binary ? vbt : json;
    const char* ext = binary ? ".vbt" : ".json";
    const auto fmt = binary ? study::ArtifactFormat::kBinary
                            : study::ArtifactFormat::kJson;
    const std::string whole = (dir / (std::string{"whole"} + ext)).string();

    t.save_s = best_of(reps, [&] { table.save(whole, fmt); });
    t.bytes = fs::file_size(whole);

    std::size_t loaded_rows = 0;
    t.load_s = best_of(reps, [&] {
      loaded_rows = study::ResultTable::load(whole).rows.size();
    });
    if (loaded_rows != rows) {
      std::fprintf(stderr, "FATAL: %s loaded %zu rows, want %zu\n", ext,
                   loaded_rows, rows);
      return 1;
    }

    if (binary) {
      // Zero-copy path: open + touch every f64 measure through the span.
      double sum = 0.0;
      vbt_open_s = best_of(reps, [&] {
        const auto mapped = io::columnar::MappedTable::open(whole);
        const unsigned char* accuracy = mapped->column_data(2);
        sum = 0.0;
        for (std::size_t r = 0; r < mapped->num_rows(); ++r) {
          double v = 0.0;
          std::memcpy(&v, accuracy + 8 * r, 8);
          sum += v;
        }
      });
      std::printf("  (zero-copy accuracy mean %.6f)\n",
                  sum / static_cast<double>(rows));
    }

    std::vector<std::string> shard_paths;
    for (std::size_t i = 0; i < shards; ++i) {
      const std::string p =
          (dir / ("shard" + std::to_string(i) + ext)).string();
      shard_tables[i].save(p, fmt);
      shard_paths.push_back(p);
    }
    std::size_t merged_rows = 0;
    t.merge_s = best_of(reps, [&] {
      std::vector<study::ResultTable> loaded_shards;
      for (const std::string& p : shard_paths) {
        loaded_shards.push_back(study::ResultTable::load(p));
      }
      merged_rows =
          study::merge_result_tables(std::move(loaded_shards)).rows.size();
    });
    if (merged_rows != rows) {
      std::fprintf(stderr, "FATAL: merge produced %zu rows, want %zu\n",
                   merged_rows, rows);
      return 1;
    }

    std::printf("  %-5s save %7.3fs  load %7.3fs  merge %7.3fs  %9.1f MiB\n",
                binary ? "vbt" : "json", t.save_s, t.load_s, t.merge_s,
                static_cast<double>(t.bytes) / (1024.0 * 1024.0));
  }

  std::printf("  vbt zero-copy open+scan: %.6fs\n", vbt_open_s);
  // "load" is each format's native analysis-load path: full parse for
  // JSON, mmap + span scan for the binary format (the reason it exists).
  std::printf("speedups (json/vbt): load %.0fx  merge %.1fx  save %.1fx\n",
              json.load_s / vbt_open_s, json.merge_s / vbt.merge_s,
              json.save_s / vbt.save_s);

  // Trajectory entry (paste into bench/BENCH_artifact_io.json).
  io::Json entry = io::Json::object();
  entry.set("rows", io::Json{std::uint64_t{rows}});
  entry.set("columns", io::Json{std::uint64_t{table.columns.size()}});
  entry.set("shards", io::Json{std::uint64_t{shards}});
  auto path_json = [](const PathTimes& t) {
    io::Json o = io::Json::object();
    o.set("save_s", io::Json{t.save_s});
    o.set("load_s", io::Json{t.load_s});
    o.set("merge_s", io::Json{t.merge_s});
    o.set("bytes", io::Json{std::uint64_t{t.bytes}});
    return o;
  };
  entry.set("json", path_json(json));
  io::Json v = path_json(vbt);
  v.set("open_scan_s", io::Json{vbt_open_s});
  entry.set("vbt", v);
  io::Json speedup = io::Json::object();
  speedup.set("load", io::Json{json.load_s / vbt_open_s});
  speedup.set("merge", io::Json{json.merge_s / vbt.merge_s});
  speedup.set("save", io::Json{json.save_s / vbt.save_s});
  entry.set("speedup", speedup);
  std::printf("%s\n", entry.dump(2).c_str());

  if (out_env == nullptr || *out_env == '\0') {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return 0;
}
