// varbench — unified command-line front-end, spec-driven.
//
// The primary interface is experiments-as-data (docs/study_api.md):
//
//   varbench run   <spec.json> [--set key=val ...] [--shard i/N]
//                  [--threads N] [--out out.json] [--csv out.csv]
//                  [--canonical]
//   varbench merge <shard.json | shard-dir> ... [--out merged.json]
//                  [--csv merged.csv]
//   varbench campaign <spec.json> --dir <state-dir> [--shards N]
//                  [--workers K] [--resume] [--max-retries R]
//   varbench report <artifact.json | dir> [--spec r.json] [--format F]
//                  [--compare other.json] [--threads N] [--out file]
//
// `run` executes a serialized StudySpec and writes the canonical
// ResultTable artifact; `--shard i/N` computes slice i of N (bit-identical
// to the same slice of the unsharded run; merging all N slices with
// `merge` reproduces the unsharded artifact exactly). `campaign` fans a
// spec (or a JSON array of specs) out over a pool of `varbench run` worker
// subprocesses through a resumable state directory (docs/campaigns.md).
// `report` derives every summary statistic (mean/std, bootstrap CIs,
// normality, P(A>B) with --compare) from any artifact — no producing spec
// needed — and renders it as text/markdown/CSV/JSON (docs/reporting.md).
//
// Every study runs through `run`/`campaign`; the case-study utilities
// answer what no spec does:
//
//   varbench tasks                         list registered case studies
//   varbench plan   [--gamma G] [--alpha A] [--beta B]
//   varbench audit  <task> [--scale S]
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_spec.h"
#include "bench/gate.h"
#include "src/campaign/campaign.h"
#include "src/campaign/status.h"
#include "src/campaign/subprocess.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/metrics/table.h"
#include "src/metrics/trace_file.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/report_spec.h"
#include "src/report/summary.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"
#include "src/varbench.h"
#include "src/version.h"

namespace {

using namespace varbench;

/// argv[0], kept for campaign worker spawning (fallback when /proc/self/exe
/// is unavailable).
std::string g_argv0 = "varbench";

// ------------------------------------------------------------ arguments

struct Args {
  std::vector<std::string> positional;
  // In command-line order; repeated flags (--set) keep every occurrence.
  std::vector<std::pair<std::string, std::string>> options;

  [[nodiscard]] const std::string* find(const std::string& key) const {
    const std::string* last = nullptr;
    for (const auto& [k, v] : options) {
      if (k == key) last = &v;
    }
    return last;
  }

  [[nodiscard]] std::vector<std::string> all(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : options) {
      if (k == key) out.push_back(v);
    }
    return out;
  }
};

/// Flags that never consume the following token as a value.
const std::set<std::string>& boolean_flags() {
  static const std::set<std::string> flags{
      "canonical", "gate",   "help",  "json",    "list", "no-append",
      "plan-only", "resume", "summary", "trace", "watch"};
  return flags;
}

/// `--key value`, `--key=value`, and bare boolean `--key`. A following
/// token is a value unless it is itself a long flag (starts with "--"), so
/// negative numbers (`--lr-mult -0.5`) parse as values.
Args parse(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      a.positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      a.options.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      continue;
    }
    const std::string key = arg.substr(2);
    const bool has_value = i + 1 < argc &&
                           std::strncmp(argv[i + 1], "--", 2) != 0 &&
                           boolean_flags().count(key) == 0;
    a.options.emplace_back(key, has_value ? argv[++i] : "1");
  }
  return a;
}

/// Reject typo'd flags loudly: a misspelled --shard must not silently run
/// the full unsharded study (mirrors the spec layer's unknown-key errors).
void require_known_flags(const Args& a,
                         std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : a.options) {
    bool ok = false;
    for (const std::string_view k : known) {
      if (key == k) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      std::string list;
      for (const std::string_view k : known) {
        if (!list.empty()) list += ", ";
        list += "--" + std::string{k};
      }
      throw std::invalid_argument(
          "unknown flag '--" + key + "'" +
          (list.empty() ? " (this subcommand takes no flags)"
                        : " (known flags: " + list + ")"));
    }
  }
}

[[noreturn]] void bad_option(const std::string& key, const std::string& value,
                             const char* wanted) {
  throw std::invalid_argument("--" + key + " expects " + wanted + ", got '" +
                              value + "'");
}

double opt_double(const Args& a, const std::string& key, double fallback) {
  const std::string* v = a.find(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
    bad_option(key, *v, "a number");
  }
  return parsed;
}

std::size_t opt_size(const Args& a, const std::string& key,
                     std::size_t fallback) {
  const std::string* v = a.find(key);
  if (v == nullptr) return fallback;
  if (v->find('-') != std::string::npos) {
    bad_option(key, *v, "a non-negative integer");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (v->empty() || end != v->c_str() + v->size() || errno == ERANGE) {
    bad_option(key, *v, "a non-negative integer");
  }
  return static_cast<std::size_t>(parsed);
}

std::string opt_string(const Args& a, const std::string& key,
                       const std::string& fallback) {
  const std::string* v = a.find(key);
  return v == nullptr ? fallback : *v;
}

bool opt_flag(const Args& a, const std::string& key) {
  return a.find(key) != nullptr;
}

/// --format for artifact-writing subcommands (run/merge/campaign/convert):
/// "auto" follows the output path's extension (.vbt → binary), "json" and
/// "binary" force it. Distinct from report's --format, which picks the
/// rendering.
study::ArtifactFormat opt_artifact_format(const Args& a) {
  const std::string v = opt_string(a, "format", "auto");
  if (v == "auto") return study::ArtifactFormat::kAuto;
  if (v == "json") return study::ArtifactFormat::kJson;
  if (v == "binary" || v == "vbt") return study::ArtifactFormat::kBinary;
  bad_option("format", v, "auto, json, or binary");
}

// ------------------------------------------------------------- artifacts

/// Write the artifact/CSV files requested by --out/--csv and print the
/// summary. Returns 0.
int finish_study(const study::ResultTable& table, const Args& a) {
  const bool canonical = opt_flag(a, "canonical");
  if (const std::string* out = a.find("out")) {
    table.save(*out, opt_artifact_format(a),
               /*include_provenance=*/!canonical);
    std::fprintf(stderr, "wrote %s\n", out->c_str());
  }
  if (const std::string* csv = a.find("csv")) {
    io::write_file(*csv, table.to_csv());
    std::fprintf(stderr, "wrote %s\n", csv->c_str());
  }
  study::print_summary(table, stdout);
  return 0;
}

// ------------------------------------------------ introspection envelope

/// Every machine-readable introspection surface — `--version --json`,
/// `list --json`, `metrics --list --json` — goes through this one helper
/// pair, so tooling can key on the shared {"tool", "version"} envelope no
/// matter which registry it asked for.
io::Json tool_envelope() {
  io::Json doc = io::Json::object();
  doc.set("tool", io::Json{std::string{"varbench"}});
  doc.set("version", io::Json{std::string{kVersion}});
  return doc;
}

int emit_introspection(const io::Json& doc) {
  std::fputs((doc.dump(2) + "\n").c_str(), stdout);
  return 0;
}

// ------------------------------------------------------- spec subcommands

int cmd_run(const Args& a) {
  require_known_flags(a, {"set", "shard", "threads", "out", "csv", "canonical",
                          "format", "metrics", "metrics-out", "trace-out"});
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: varbench run <spec.json> [--set key=val ...] "
                 "[--shard i/N] [--threads N] [--out out.json] "
                 "[--csv out.csv] [--canonical] [--format auto|json|binary] "
                 "[--metrics all|<subsystem>|<name>,... "
                 "[--metrics-out metrics.json]] [--trace-out t.trace.json]\n");
    return 2;
  }
  io::Json doc = io::Json::parse(io::read_file(a.positional[0]));
  for (const std::string& assignment : a.all("set")) {
    study::apply_override(doc, assignment);
  }
  if (const std::string* threads = a.find("threads")) {
    study::apply_override(doc, "threads", *threads);
  }
  if (const std::string* shard = a.find("shard")) {
    const auto s = study::ShardSpec::parse(*shard);
    study::apply_override(doc, "shard.index", std::to_string(s.index));
    study::apply_override(doc, "shard.count", std::to_string(s.count));
  }
  const auto spec = study::StudySpec::from_json(doc);
  // Metrics are provenance, never identity: enabling them cannot change
  // the artifact bytes (docs/metrics.md), so the snapshot rides next to —
  // not inside — the study artifact, as its own canonical ResultTable.
  const std::string* selection = a.find("metrics");
  if (selection != nullptr) {
    metrics::enable_selection(metrics::global_sink(), *selection);
  }
  // Spans are the same bargain: they describe where the time went, never
  // what the result is, so --trace-out cannot change the artifact bytes
  // either. Campaign workers get this flag injected by subprocess_launcher
  // so every worker leaves a per-worker trace behind.
  const std::string* trace_out = a.find("trace-out");
  if (trace_out != nullptr) {
    metrics::enable_selection(metrics::global_sink(), "all",
                              metrics::Entries::kSpans);
  }
  const int rc = finish_study(study::run_study(spec), a);
  if (trace_out != nullptr) {
    std::string process = std::filesystem::path{*trace_out}.filename().string();
    constexpr std::string_view kSuffix = ".trace.json";
    if (process.size() > kSuffix.size() &&
        process.compare(process.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) == 0) {
      process.resize(process.size() - kSuffix.size());
    }
    const metrics::TraceFile file =
        metrics::global_sink().drain(std::move(process));
    metrics::write_trace_file(*trace_out, file);
    std::fprintf(stderr, "trace: %zu span(s) -> %s\n", file.spans.size(),
                 trace_out->c_str());
  }
  if (selection != nullptr) {
    const study::ResultTable mtable = metrics::to_result_table(
        metrics::global_sink().snapshot(), "metrics:run");
    if (const std::string* mout = a.find("metrics-out")) {
      mtable.save(*mout);
      std::fprintf(stderr, "metrics: %zu metric(s) -> %s\n",
                   mtable.rows.size(), mout->c_str());
    } else {
      std::fputs(mtable.to_csv().c_str(), stderr);
    }
  }
  return rc;
}

/// Expand a merge operand: a file stands for itself; a directory stands for
/// the `*.json` and `*.vbt` files it holds (mixed freely) — preferring its
/// `artifacts/` subdirectory when present, so a campaign state dir and a
/// hand-run shard dir merge the same way. In-flight `.part` files and
/// `campaign.json` are skipped.
std::vector<std::string> expand_shard_paths(const std::string& operand) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(operand)) return {operand};
  fs::path dir{operand};
  if (fs::is_directory(dir / "artifacts")) dir /= "artifacts";
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator{dir}) {
    const fs::path& p = entry.path();
    if (!entry.is_regular_file() ||
        (p.extension() != ".json" && p.extension() != ".vbt")) {
      continue;
    }
    if (p.filename() == "campaign.json") continue;
    files.push_back(p.string());
  }
  if (files.empty()) {
    throw std::invalid_argument(
        "merge: no shard artifacts (*.json, *.vbt) in '" + dir.string() +
        "'");
  }
  std::sort(files.begin(), files.end());
  return files;
}

int cmd_merge(const Args& a) {
  require_known_flags(a, {"out", "csv", "format"});
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: varbench merge <shard.json|shard.vbt | shard-dir> "
                 "... [--out merged.json] [--csv merged.csv] "
                 "[--format auto|json|binary]\n"
                 "a directory operand merges every *.json/*.vbt inside it "
                 "(a campaign state dir merges its artifacts/)\n");
    return 2;
  }
  std::vector<study::ResultTable> shards;
  for (const auto& operand : a.positional) {
    for (const auto& path : expand_shard_paths(operand)) {
      shards.push_back(study::ResultTable::load(path));
    }
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  // A merged artifact has no single producing process; it is always
  // written in canonical (identity-only) form.
  if (const std::string* out = a.find("out")) {
    merged.save(*out, opt_artifact_format(a), /*include_provenance=*/false);
    std::fprintf(stderr, "wrote %s\n", out->c_str());
  }
  if (const std::string* csv = a.find("csv")) {
    io::write_file(*csv, merged.to_csv());
    std::fprintf(stderr, "wrote %s\n", csv->c_str());
  }
  study::print_summary(merged, stdout);
  return 0;
}

int cmd_campaign(const Args& a) {
  require_known_flags(a, {"shards", "workers", "dir", "resume", "max-retries",
                          "stale-ms", "task-timeout-ms", "set", "threads",
                          "plan-only", "format", "metrics", "trace"});
  const std::string dir = opt_string(a, "dir", "");
  const bool plan_only = opt_flag(a, "plan-only");
  if (a.positional.empty() || (dir.empty() && !plan_only)) {
    std::fprintf(stderr,
                 "usage: varbench campaign <spec.json> ... --dir <state-dir> "
                 "[--shards N] [--workers K] [--resume] [--max-retries R] "
                 "[--stale-ms T] [--task-timeout-ms T] [--set key=val ...] "
                 "[--threads N] [--plan-only] [--format json|binary] "
                 "[--metrics all|<subsystem>|<name>,...] [--trace]\n"
                 "each <spec.json> is one StudySpec or a JSON array of "
                 "specs; --resume finishes the gaps of an existing state "
                 "dir; --plan-only validates every spec and prints the task "
                 "plan without running\n");
    return 2;
  }
  std::vector<io::Json> raw;
  for (const std::string& path : a.positional) {
    io::Json doc = io::Json::parse(io::read_file(path));
    if (doc.is_array()) {
      for (const io::Json& spec_doc : doc.as_array()) {
        raw.push_back(spec_doc);
      }
    } else {
      raw.push_back(std::move(doc));
    }
  }
  std::vector<study::StudySpec> studies;
  for (io::Json& spec_doc : raw) {
    for (const std::string& assignment : a.all("set")) {
      study::apply_override(spec_doc, assignment);
    }
    if (const std::string* threads = a.find("threads")) {
      study::apply_override(spec_doc, "threads", *threads);
    }
    studies.push_back(study::StudySpec::from_json(spec_doc));
  }

  if (plan_only) {
    // Validate + plan without touching any state: the dry-run used by CI
    // and by users checking a campaign file before committing machines.
    // Run the same pre-run checks the workers would hit (unknown case
    // study, repetitions on an analytic figure kind, missing runner) so a
    // plan-clean campaign cannot fail them at worker time.
    for (const auto& spec : studies) {
      study::validate_study_spec(spec);
    }
    const auto tasks =
        campaign::plan_tasks(studies, opt_size(a, "shards", 1));
    for (const auto& task : tasks) {
      std::printf("%-14s %s:%s shard %s\n", task.id.c_str(),
                  std::string{study::to_string(task.spec.kind)}.c_str(),
                  task.spec.case_study.c_str(),
                  task.spec.shard.label().c_str());
    }
    std::printf("plan: %zu task(s) over %zu study(ies)\n", tasks.size(),
                studies.size());
    return 0;
  }

  // Coordinator metrics land in campaign.json's "metrics" provenance
  // block next to the per-task wall_time_ms (docs/metrics.md).
  if (const std::string* selection = a.find("metrics")) {
    metrics::enable_selection(metrics::global_sink(), *selection);
  }

  campaign::CampaignConfig cfg;
  cfg.dir = dir;
  cfg.shards = opt_size(a, "shards", 1);
  cfg.workers = opt_size(a, "workers", 1);
  cfg.max_retries = opt_size(a, "max-retries", 2);
  cfg.stale_after = std::chrono::milliseconds{opt_size(a, "stale-ms", 60'000)};
  cfg.task_timeout =
      std::chrono::milliseconds{opt_size(a, "task-timeout-ms", 0)};
  cfg.resume = opt_flag(a, "resume");
  cfg.events = stderr;
  cfg.format = opt_artifact_format(a);  // kAuto behaves as kJson
  cfg.trace = opt_flag(a, "trace");
  if (cfg.trace) {
    // The coordinator's own io spans (artifact loads during study merge)
    // ride in coordinator.trace.json next to the campaign spans; workers
    // are separate processes and trace themselves via --trace-out.
    metrics::enable_selection(metrics::global_sink(), "io",
                              metrics::Entries::kSpans);
  }

  const auto report = campaign::run_campaign(
      cfg, studies,
      campaign::subprocess_launcher(campaign::current_executable(g_argv0),
                                    cfg.trace));

  for (const auto& path : report.merged_outputs) {
    std::printf("merged: %s\n", path.c_str());
  }
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "error: %s\n", failure.c_str());
  }
  return report.ok() ? 0 : 1;
}

/// varbench convert <in> <out>: re-encode one artifact between JSON and
/// VBT1 binary. Conversion is lossless in both directions — the canonical
/// identity bytes (and provenance, unless --canonical drops it) survive a
/// JSON → binary → JSON round trip exactly (docs/artifacts.md).
int cmd_convert(const Args& a) {
  require_known_flags(a, {"format", "canonical"});
  if (a.positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: varbench convert <in.json|in.vbt> <out.vbt|out.json> "
                 "[--format auto|json|binary] [--canonical]\n"
                 "the output format follows the output extension unless "
                 "--format overrides it; --canonical drops provenance "
                 "(threads/wall time) from the output\n");
    return 2;
  }
  const auto table = study::ResultTable::load(a.positional[0]);
  table.save(a.positional[1], opt_artifact_format(a),
             /*include_provenance=*/!opt_flag(a, "canonical"));
  std::fprintf(stderr, "wrote %s (%zu rows, %zu columns)\n",
               a.positional[1].c_str(), table.rows.size(),
               table.columns.size());
  return 0;
}

int cmd_report(const Args& a) {
  require_known_flags(a, {"spec", "set", "format", "compare", "threads",
                          "out"});
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: varbench report <artifact.json | dir> "
                 "[--spec r.json] [--set key=val ...] "
                 "[--format text|markdown|csv|json] "
                 "[--compare other.json] [--threads N] [--out file]\n"
                 "renders every statistic derivable from a ResultTable "
                 "artifact; a directory reports each study it holds "
                 "(docs/reporting.md)\n");
    return 2;
  }
  io::Json spec_doc = io::Json::object();
  if (const std::string* path = a.find("spec")) {
    spec_doc = io::Json::parse(io::read_file(*path));
  }
  for (const std::string& assignment : a.all("set")) {
    study::apply_override(spec_doc, assignment);
  }
  if (const std::string* format = a.find("format")) {
    study::apply_override(spec_doc, "format", "\"" + *format + "\"");
  }
  const auto spec = report::ReportSpec::from_json(spec_doc);
  const auto format = report::format_from_string(spec.format);
  // Threads only schedule the bootstrap/permutation loops; the rendered
  // bytes are invariant (docs/determinism.md).
  const exec::ExecContext ctx{opt_size(a, "threads", 1)};

  const std::string& target = a.positional[0];
  std::vector<report::Report> reports;
  const bool is_dir = std::filesystem::is_directory(target);
  if (is_dir) {
    if (a.find("compare") != nullptr) {
      throw std::invalid_argument(
          "report: --compare works on single artifacts, not directories");
    }
    auto dir = report::load_artifact_dir(target);
    for (const auto& artifact : dir.studies) {
      reports.push_back(report::summarize(ctx, artifact, spec));
    }
    // Wall-time totals ride on the last study's report.
    if (dir.provenance.has_value() && !reports.empty()) {
      reports.back().provenance = std::move(dir.provenance);
    }
  } else {
    const auto artifact = report::load_artifact(target);
    if (const std::string* other = a.find("compare")) {
      reports.push_back(report::summarize_compare(
          ctx, artifact, report::load_artifact(*other), spec));
    } else {
      reports.push_back(report::summarize(ctx, artifact, spec));
    }
  }
  // A directory always renders as a multi-report document (a JSON array),
  // so consumers see one stable shape however many studies it holds.
  const std::string rendered = is_dir
                                   ? report::render_all(reports, format)
                                   : report::render(reports.front(), format);
  if (const std::string* out = a.find("out")) {
    io::write_file(*out, rendered);
    std::fprintf(stderr, "wrote %s\n", out->c_str());
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

/// varbench trace <state-dir> [--chrome out.json] [--summary]: stitch the
/// per-worker traces a `campaign --trace` run left behind into one
/// timeline. --chrome exports Chrome trace-event JSON (load it in
/// Perfetto / chrome://tracing); --summary (also the default when no
/// --chrome is asked for) renders the per-span critical-path table through
/// the report machinery (docs/metrics.md).
int cmd_trace(const Args& a) {
  require_known_flags(a, {"chrome", "summary", "format", "threads"});
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: varbench trace <state-dir> [--chrome out.json] "
                 "[--summary] [--format text|markdown|csv|json]\n"
                 "stitches <state-dir>/traces/*.trace.json (written by "
                 "campaign --trace or run --trace-out) into a Chrome "
                 "trace-event timeline and a per-span summary "
                 "(docs/metrics.md)\n");
    return 2;
  }
  const metrics::StitchedTrace stitched =
      metrics::stitch_state_dir(a.positional[0]);
  std::fprintf(stderr, "trace: %zu span(s) across %zu process(es)\n",
               stitched.total_spans(), stitched.processes.size());
  bool emitted = false;
  if (const std::string* out = a.find("chrome")) {
    io::write_file(*out, metrics::chrome_trace_json(stitched).dump(2) + "\n");
    std::fprintf(stderr, "wrote %s\n", out->c_str());
    emitted = true;
  }
  if (opt_flag(a, "summary") || !emitted) {
    // The per-span aggregate is an ordinary ResultTable, so it renders
    // through the same report pipeline as any study artifact: group by
    // span name, one group per instrumented region.
    io::Json spec_doc = io::Json::object();
    spec_doc.set("group_by", io::Json{std::string{"span"}});
    io::Json estimators = io::Json::array();
    estimators.push_back(io::Json{std::string{"mean"}});
    spec_doc.set("estimators", std::move(estimators));
    spec_doc.set("format",
                 io::Json{opt_string(a, "format", "text")});
    const auto spec = report::ReportSpec::from_json(spec_doc);
    const report::LoadedArtifact artifact{a.positional[0],
                                          metrics::summary_table(stitched)};
    const exec::ExecContext ctx{opt_size(a, "threads", 1)};
    const auto rendered = report::render(report::summarize(ctx, artifact, spec),
                                         report::format_from_string(spec.format));
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

/// varbench status <state-dir> [--json] [--watch]: live campaign state
/// from heartbeats + claims + manifest alone — strictly read-only, safe to
/// run beside a live coordinator (docs/campaigns.md).
int cmd_status(const Args& a) {
  require_known_flags(a, {"json", "watch", "interval-ms"});
  if (a.positional.empty()) {
    std::fprintf(stderr,
                 "usage: varbench status <state-dir> [--json] [--watch] "
                 "[--interval-ms T]\n"
                 "reads the manifest, queue, and claim heartbeats of a "
                 "(possibly running) campaign without touching them; "
                 "--watch repolls until no task is pending\n");
    return 2;
  }
  const bool watch = opt_flag(a, "watch");
  const std::size_t interval = opt_size(a, "interval-ms", 1'000);
  for (;;) {
    const auto status = campaign::read_status(a.positional[0]);
    if (a.find("json") != nullptr) {
      io::Json doc = tool_envelope();
      doc.set("status", campaign::status_json(status));
      std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    } else {
      std::fputs(campaign::render_status_text(status).c_str(), stdout);
    }
    std::fflush(stdout);
    if (!watch || status.pending == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{interval});
  }
  return 0;
}

// ---------------------------------------------- registries and perf gate

int cmd_list(const Args& a) {
  require_known_flags(a, {"json"});
  if (a.find("json") != nullptr) {
    io::Json doc = tool_envelope();
    doc.set("kinds", study::study_kinds_json());
    return emit_introspection(doc);
  }
  std::fputs(study::list_study_kinds_text().c_str(), stdout);
  std::printf(
      "\nrun one with: varbench run spec.json (spec: {\"kind\": \"<name>\"} "
      "+ optional common fields and params overrides)\n");
  return 0;
}

/// varbench metrics --list [--json]: the metric registry — stable integer
/// ids, names, kinds, units, subsystems (docs/metrics.md) — through the
/// same introspection envelope as `list --json`.
int cmd_metrics(const Args& a) {
  require_known_flags(a, {"list", "json"});
  if (a.find("json") != nullptr) {
    io::Json doc = tool_envelope();
    doc.set("metrics", metrics::registry_json());
    return emit_introspection(doc);
  }
  std::fputs(metrics::registry_text().c_str(), stdout);
  std::printf(
      "\nenable with --metrics <sel> on run/campaign (sel: \"all\", a "
      "subsystem, or metric names, comma-separated)\n");
  return 0;
}

/// varbench bench [--gate]: the perf-trajectory rung (docs/metrics.md).
/// Runs the instrumented microbench suites, appends min-of-N rows to
/// bench/BENCH_{exec,campaign,stats,ml}.json, and in gate mode fails on
/// regressions beyond the noise band. Defaults come from the same
/// BenchSpec environment parse the bench/ binaries use, so both surfaces
/// are driven uniformly.
int cmd_bench(const Args& a) {
  require_known_flags(a, {"gate", "dir", "threshold", "repeats", "scale",
                          "threads", "label", "no-append", "inject-slowdown"});
  const benchutil::BenchSpec& knobs = benchutil::BenchSpec::env();
  benchutil::GateOptions opts;
  opts.bench_dir = opt_string(a, "dir", "bench");
  opts.threshold = opt_double(a, "threshold", 1.5);
  opts.repeats = opt_size(a, "repeats", knobs.reps.value_or(5));
  opts.scale = opt_double(a, "scale", knobs.scale.value_or(1.0));
  opts.threads = opt_size(a, "threads", knobs.threads);
  opts.gate = opt_flag(a, "gate");
  opts.append = !opt_flag(a, "no-append");
  opts.label = opt_string(a, "label", "local");
  opts.inject_slowdown = opt_double(a, "inject-slowdown", 1.0);
  return benchutil::run_bench_gate(opts, stdout);
}

// ----------------------------------------------- case-study utilities

int cmd_tasks(const Args& a) {
  require_known_flags(a, {});
  std::printf("registered case studies:\n");
  for (const auto& id : casestudies::case_study_ids()) {
    const auto& c = casestudies::calibration_for(id);
    std::printf("  %-18s %-18s metric=%-9s paper n'=%zu\n", id.c_str(),
                c.paper_task.c_str(), c.metric.c_str(), c.paper_test_size);
  }
  return 0;
}

int cmd_plan(const Args& a) {
  require_known_flags(a, {"gamma", "alpha", "beta"});
  const double gamma = opt_double(a, "gamma", 0.75);
  const double alpha = opt_double(a, "alpha", 0.05);
  const double beta = opt_double(a, "beta", 0.05);
  const std::size_t n = stats::noether_sample_size(gamma, alpha, beta);
  std::printf(
      "gamma=%.2f alpha=%.2f beta=%.2f -> run each algorithm %zu times "
      "(paired)\n",
      gamma, alpha, beta, n);
  return 0;
}

int cmd_audit(const Args& a) {
  require_known_flags(a, {"scale"});
  if (a.positional.empty()) {
    std::fprintf(stderr, "usage: varbench audit <task> [--scale S]\n");
    return 2;
  }
  const auto cs = casestudies::make_case_study(a.positional[0],
                                               opt_double(a, "scale", 0.15));
  const auto cfg = cs.pipeline->resolve_config(cs.pipeline->default_params());
  ml::ReproAuditConfig audit;
  audit.num_seeds = 2;
  audit.num_repeats = 2;
  const auto report = ml::audit_reproducibility(*cs.pool, cfg, audit);
  std::printf("deterministic: %s, resumable: %s\n",
              report.deterministic ? "yes" : "NO",
              report.resumable ? "yes" : "NO");
  for (const auto& f : report.failures) std::printf("  finding: %s\n",
                                                    f.c_str());
  std::printf("audit %s\n", report.passed() ? "PASSED" : "FAILED");
  // pascalvoc_fcn intentionally injects numerical noise and must fail.
  return report.passed() ? 0 : 1;
}

void usage() {
  std::printf(
      "varbench — variance-aware ML benchmarking (MLSys 2021 reproduction)\n"
      "spec-driven interface (docs/study_api.md):\n"
      "  run     <spec.json> [--set key=val ...] [--shard i/N] [--threads N]\n"
      "          [--out out.json|out.vbt] [--csv out.csv] [--canonical]\n"
      "          [--format auto|json|binary]\n"
      "  merge   <shard.json|shard.vbt | shard-dir> ... [--out merged.json]\n"
      "          [--csv merged.csv] [--format auto|json|binary]\n"
      "  convert <in> <out> [--format auto|json|binary] [--canonical]\n"
      "          re-encode an artifact between JSON and VBT1 binary\n"
      "          (lossless both ways, docs/artifacts.md)\n"
      "  campaign <spec.json> --dir <state-dir> [--shards N] [--workers K]\n"
      "          [--resume] [--max-retries R] [--plan-only]\n"
      "          [--format json|binary] [--trace] (docs/campaigns.md)\n"
      "  trace   <state-dir> [--chrome out.json] [--summary]\n"
      "          stitch per-worker traces into a Chrome trace-event\n"
      "          timeline + per-span summary (docs/metrics.md)\n"
      "  status  <state-dir> [--json] [--watch]\n"
      "          live worker/task state from heartbeats alone, read-only\n"
      "          (docs/campaigns.md)\n"
      "  list    [--json]  registered study kinds (incl. every paper\n"
      "          figure/table); --json emits the machine-readable registry\n"
      "  metrics --list [--json]  the metric registry: stable ids, names,\n"
      "          units, subsystems (docs/metrics.md); enable with\n"
      "          --metrics <sel> on run/campaign\n"
      "  bench   [--gate] [--dir bench] [--threshold X] [--repeats N]\n"
      "          [--scale S] [--threads N] [--label L] [--no-append]\n"
      "          run the instrumented microbenches, append the perf\n"
      "          trajectory, gate regressions (docs/metrics.md)\n"
      "  report  <artifact.json | dir> [--spec r.json] [--set key=val ...]\n"
      "          [--format text|markdown|csv|json] [--compare other.json]\n"
      "          [--threads N] [--out file] (docs/reporting.md)\n"
      "case-study utilities:\n"
      "  tasks                       list case studies\n"
      "  plan    [--gamma --alpha --beta]  Noether runs per algorithm\n"
      "  audit   <task> [--scale]    reproducibility audit of one pipeline\n"
      "--threads N runs the Monte-Carlo loops on N threads (0 = all cores)\n"
      "and --shard i/N computes slice i of N; results are bit-identical for\n"
      "every N and any shard/merge split (docs/determinism.md).\n"
      "varbench --version prints the release version and exits.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  g_argv0 = argv[0];
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  if (cmd == "--version") {
    if (args.find("json") != nullptr) return emit_introspection(tool_envelope());
    std::printf("varbench %.*s\n", static_cast<int>(kVersion.size()),
                kVersion.data());
    return 0;
  }
  try {
    if (cmd == "run") return cmd_run(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "list") return cmd_list(args);
    if (cmd == "metrics") return cmd_metrics(args);
    if (cmd == "bench") return cmd_bench(args);
    if (cmd == "tasks") return cmd_tasks(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "audit") return cmd_audit(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
