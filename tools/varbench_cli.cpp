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
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

/// One flag a subcommand accepts: its name, and what usage shows for the
/// value it takes (empty: a boolean flag, which takes none).
struct Flag {
  std::string_view name;
  std::string_view value;
};

/// `--key value`, `--key=value`, and bare boolean `--key` (a flag whose
/// `flags` entry takes no value, or --help). A following token is a value
/// unless it is itself a long flag (starts with "--"), so negative numbers
/// (`--lr-mult -0.5`) parse as values.
Args parse(int argc, char** argv, int from, const std::vector<Flag>& flags) {
  const auto boolean = [&](const std::string& key) {
    if (key == "help") return true;
    for (const Flag& flag : flags) {
      if (flag.name == key) return flag.value.empty();
    }
    return false;
  };
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
                           !boolean(key);
    a.options.emplace_back(key, has_value ? argv[++i] : "1");
  }
  return a;
}

/// Reject typo'd flags loudly: a misspelled --shard must not silently run
/// the full unsharded study (mirrors the spec layer's unknown-key errors).
void require_known_flags(const Args& a, const std::vector<Flag>& flags) {
  for (const auto& [key, value] : a.options) {
    bool ok = false;
    for (const Flag& flag : flags) ok = ok || flag.name == key;
    if (!ok) {
      std::string list;
      for (const Flag& flag : flags) {
        if (!list.empty()) list += ", ";
        list += "--" + std::string{flag.name};
      }
      throw std::invalid_argument(
          "unknown flag '--" + key + "'" +
          (list.empty() ? " (this subcommand takes no flags)"
                        : " (known flags: " + list + ")"));
    }
  }
}

/// Print subcommand `name`'s usage line and help to stderr; returns 2.
int command_usage(std::string_view name);

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
  report::print_summary(table, stdout);
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
  if (a.positional.empty()) return command_usage("run");
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
/// the artifacts it holds (report::artifact_files_in) — preferring its
/// `artifacts/` subdirectory when present, so a campaign state dir and a
/// hand-run shard dir merge the same way.
std::vector<std::string> expand_shard_paths(const std::string& operand) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(operand)) return {operand};
  fs::path dir{operand};
  if (fs::is_directory(dir / "artifacts")) dir /= "artifacts";
  std::vector<std::string> files = report::artifact_files_in(dir.string());
  if (files.empty()) {
    throw std::invalid_argument(
        "merge: no shard artifacts (*.json, *.vbt) in '" + dir.string() +
        "'");
  }
  return files;
}

int cmd_merge(const Args& a) {
  if (a.positional.empty()) return command_usage("merge");
  std::vector<study::ResultTable> shards;
  for (const auto& operand : a.positional) {
    std::vector<std::string> studies;
    for (const auto& path : expand_shard_paths(operand)) {
      shards.push_back(study::ResultTable::load(path));
      const std::string id = report::study_identity(shards.back());
      if (std::find(studies.begin(), studies.end(), id) == studies.end()) {
        studies.push_back(id);
      }
    }
    if (studies.size() > 1) {
      throw std::invalid_argument(
          "merge: '" + operand + "' holds the shards of " +
          std::to_string(studies.size()) +
          " studies; merge takes one study's shards. To merge and report "
          "each study, run: varbench report " + operand);
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
  report::print_summary(merged, stdout);
  return 0;
}

int cmd_campaign(const Args& a) {
  const std::string dir = opt_string(a, "dir", "");
  const bool plan_only = opt_flag(a, "plan-only");
  if (a.positional.empty() || (dir.empty() && !plan_only)) {
    return command_usage("campaign");
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
      campaign::subprocess_launcher(campaign::current_executable(g_argv0)));

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
  if (a.positional.size() != 2) return command_usage("convert");
  const auto table = study::ResultTable::load(a.positional[0]);
  table.save(a.positional[1], opt_artifact_format(a),
             /*include_provenance=*/!opt_flag(a, "canonical"));
  std::fprintf(stderr, "wrote %s (%zu rows, %zu columns)\n",
               a.positional[1].c_str(), table.rows.size(),
               table.columns.size());
  return 0;
}

int cmd_report(const Args& a) {
  if (a.positional.empty()) return command_usage("report");
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

/// varbench trace <state-dir | run.trace.json> [--chrome out.json]
/// [--summary]: stitch the per-worker traces a `campaign --trace` run left
/// behind, or the one file `run --trace-out` wrote, into one timeline.
/// --chrome exports Chrome trace-event JSON (load it in Perfetto /
/// chrome://tracing); --summary (also the default when no --chrome is
/// asked for) prints the per-span table, one row per span
/// (docs/metrics.md).
int cmd_trace(const Args& a) {
  if (a.positional.empty()) return command_usage("trace");
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
    std::fputs(report::render_table(metrics::summary_table(stitched),
                                    report::format_from_string(
                                        opt_string(a, "format", "text")))
                   .c_str(),
               stdout);
  }
  return 0;
}

/// varbench status <state-dir> [--json] [--watch]: live campaign state
/// from heartbeats + claims + manifest alone — strictly read-only, safe to
/// run beside a live coordinator (docs/campaigns.md).
int cmd_status(const Args& a) {
  if (a.positional.empty()) return command_usage("status");
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
/// bench/BENCH_{exec,campaign,stats,ml,artifact_io}.json, and in gate mode
/// fails on regressions beyond the noise band.
int cmd_bench(const Args& a) {
  benchutil::GateOptions opts;
  opts.bench_dir = opt_string(a, "dir", opts.bench_dir);
  opts.threshold = opt_double(a, "threshold", opts.threshold);
  opts.repeats = opt_size(a, "repeats", opts.repeats);
  opts.scale = opt_double(a, "scale", opts.scale);
  opts.threads = opt_size(a, "threads", opts.threads);
  opts.gate = opt_flag(a, "gate");
  opts.append = !opt_flag(a, "no-append");
  opts.label = opt_string(a, "label", "local");
  opts.inject_slowdown = opt_double(a, "inject-slowdown", opts.inject_slowdown);
  return benchutil::run_bench_gate(opts, stdout);
}

// ----------------------------------------------- case-study utilities

int cmd_tasks(const Args&) {
  std::printf("registered case studies:\n");
  for (const auto& id : casestudies::case_study_ids()) {
    const auto& c = casestudies::calibration_for(id);
    std::printf("  %-18s %-18s metric=%-9s paper n'=%zu\n", id.c_str(),
                c.paper_task.c_str(), c.metric.c_str(), c.paper_test_size);
  }
  return 0;
}

int cmd_plan(const Args& a) {
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
  if (a.positional.empty()) return command_usage("audit");
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

/// A subcommand: the one list of the flags it accepts, which the parser,
/// the unknown-flag check, `--help` and its own usage line all read.
struct Command {
  std::string_view name;
  std::string_view operands;  // shown after the name; may be empty
  std::vector<Flag> flags;
  std::string_view about;  // shown under the usage line
  int (*run)(const Args&);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table{
      {"run", "<spec.json>",
       {{"set", "key=val ..."}, {"shard", "i/N"}, {"threads", "N"},
        {"out", "out.json|out.vbt"}, {"csv", "out.csv"}, {"canonical", ""},
        {"format", "auto|json|binary"},
        {"metrics", "all|<subsystem>|<name>,..."},
        {"metrics-out", "metrics.json"}, {"trace-out", "t.trace.json"}},
       "run one study spec, write its artifact and print its summary "
       "(docs/study_api.md)",
       cmd_run},
      {"merge", "<shard.json|shard.vbt | shard-dir> ...",
       {{"out", "merged.json"}, {"csv", "merged.csv"},
        {"format", "auto|json|binary"}},
       "merge one study's shard artifacts; a directory operand merges every "
       "*.json/*.vbt inside it (a campaign state dir: its artifacts/)",
       cmd_merge},
      {"convert", "<in.json|in.vbt> <out.vbt|out.json>",
       {{"format", "auto|json|binary"}, {"canonical", ""}},
       "re-encode an artifact between JSON and VBT1 binary, lossless both "
       "ways (docs/artifacts.md); the output format follows the output "
       "extension unless --format overrides it; --canonical drops "
       "provenance (threads/wall time)", cmd_convert},
      {"campaign", "<spec.json> ...",
       {{"dir", "<state-dir>"}, {"shards", "N"}, {"workers", "K"},
        {"resume", ""}, {"max-retries", "R"}, {"stale-ms", "T"},
        {"task-timeout-ms", "T"}, {"set", "key=val ..."}, {"threads", "N"},
        {"plan-only", ""}, {"format", "json|binary"},
        {"metrics", "all|<subsystem>|<name>,..."}, {"trace", ""}},
       "each <spec.json> is one StudySpec or a JSON array of specs; --dir "
       "is required unless --plan-only, which validates every spec and "
       "prints the task plan without running; --resume finishes the gaps "
       "of an existing state dir (docs/campaigns.md)", cmd_campaign},
      {"trace", "<state-dir | run.trace.json>",
       {{"chrome", "out.json"}, {"summary", ""},
        {"format", "text|markdown|csv|json"}},
       "stitch <state-dir>/traces/*.trace.json (written by campaign "
       "--trace), or the one file run --trace-out wrote, into a Chrome "
       "trace-event timeline and a per-span summary (docs/metrics.md)",
       cmd_trace},
      {"status", "<state-dir>",
       {{"json", ""}, {"watch", ""}, {"interval-ms", "T"}},
       "live worker/task state from the manifest, queue and claim "
       "heartbeats, read-only; --watch repolls until no task is pending "
       "(docs/campaigns.md)", cmd_status},
      {"list", "", {{"json", ""}},
       "registered study kinds (incl. every paper figure/table); --json "
       "emits the machine-readable registry", cmd_list},
      {"metrics", "", {{"list", ""}, {"json", ""}},
       "with --list, the metric registry: stable ids, names, units, "
       "subsystems (docs/metrics.md); enable with --metrics <sel> on "
       "run/campaign", cmd_metrics},
      {"bench", "",
       {{"gate", ""}, {"dir", "bench"}, {"threshold", "X"}, {"repeats", "N"},
        {"scale", "S"}, {"threads", "N"}, {"label", "L"}, {"no-append", ""},
        {"inject-slowdown", "X"}},
       "run the instrumented microbenches, append the perf trajectory, "
       "gate regressions (docs/metrics.md)", cmd_bench},
      {"report", "<artifact.json | dir>",
       {{"spec", "r.json"}, {"set", "key=val ..."},
        {"format", "text|markdown|csv|json"}, {"compare", "other.json"},
        {"threads", "N"}, {"out", "file"}},
       "render every statistic derivable from a ResultTable artifact; a "
       "directory reports each study it holds (docs/reporting.md)",
       cmd_report},
      {"tasks", "", {}, "list the registered case studies", cmd_tasks},
      {"plan", "", {{"gamma", "G"}, {"alpha", "A"}, {"beta", "B"}},
       "Noether runs per algorithm", cmd_plan},
      {"audit", "<task>", {{"scale", "S"}},
       "reproducibility audit of one pipeline", cmd_audit},
  };
  return table;
}

const Command* find_command(std::string_view name) {
  for (const Command& c : commands()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

/// `line` followed by `words`, one space apart, broken before a word that
/// would pass column 78; continuation lines are indented 10 columns.
std::string wrap(std::string line, const std::vector<std::string>& words) {
  constexpr std::size_t kIndent = 10;
  std::string out;
  for (const std::string& word : words) {
    if (line.size() > kIndent && line.size() + 1 + word.size() > 78) {
      out += line + "\n";
      line.assign(kIndent, ' ');
    } else if (line.back() != ' ') {
      line += ' ';
    }
    line += word;
  }
  while (!line.empty() && line.back() == ' ') line.pop_back();
  return out + line + "\n";
}

/// The usage line of `c` after `lead`, then its help text.
std::string command_text(std::string lead, const Command& c) {
  std::vector<std::string> synopsis;
  if (!c.operands.empty()) synopsis.emplace_back(c.operands);
  for (const Flag& flag : c.flags) {
    std::string item = "[--" + std::string{flag.name};
    if (!flag.value.empty()) item += " " + std::string{flag.value};
    synopsis.push_back(item + "]");
  }
  std::vector<std::string> about;
  for (std::size_t at = 0; at < c.about.size();) {
    const std::size_t space = std::min(c.about.find(' ', at), c.about.size());
    about.emplace_back(c.about.substr(at, space - at));
    at = space + 1;
  }
  return wrap(std::move(lead), synopsis) + wrap(std::string(10, ' '), about);
}

int command_usage(std::string_view name) {
  const Command& c = *find_command(name);
  std::fputs(command_text("usage: varbench " + std::string{c.name}, c).c_str(),
             stderr);
  return 2;
}

void usage() {
  std::string text =
      "varbench — variance-aware ML benchmarking (MLSys 2021 reproduction)\n"
      "subcommands (docs/study_api.md):\n";
  for (const Command& c : commands()) {
    std::string lead = "  " + std::string{c.name};
    lead.resize(std::max<std::size_t>(lead.size() + 1, 10), ' ');
    text += command_text(std::move(lead), c);
  }
  text +=
      "--threads N runs the Monte-Carlo loops on N threads (0 = all cores)\n"
      "and --shard i/N computes slice i of N; results are bit-identical for\n"
      "every N and any shard/merge split (docs/determinism.md).\n"
      "varbench --version prints the release version and exits; --help,\n"
      "alone or after any subcommand, prints this text.\n";
  std::fputs(text.c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  g_argv0 = argv[0];
  const std::string cmd = argv[1];
  const Command* command = find_command(cmd);
  const Args args =
      parse(argc, argv, 2, command != nullptr ? command->flags
                                              : std::vector<Flag>{});
  // --help, bare or after any subcommand, is the one help there is.
  if (cmd == "--help" || args.find("help") != nullptr) {
    usage();
    return 0;
  }
  if (cmd == "--version") {
    if (args.find("json") != nullptr) return emit_introspection(tool_envelope());
    std::printf("varbench %.*s\n", static_cast<int>(kVersion.size()),
                kVersion.data());
    return 0;
  }
  if (command == nullptr) {
    usage();
    return 2;
  }
  try {
    require_known_flags(args, command->flags);
    return command->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
