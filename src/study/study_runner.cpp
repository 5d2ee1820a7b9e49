#include "src/study/study_runner.h"

#include <stdexcept>

#include "src/casestudies/registry.h"
#include "src/io/json.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/rngx/rng.h"
#include "src/study/study_kinds.h"
#include "src/version.h"

namespace varbench::study {

namespace {

void validate_case_study(const StudySpec& spec) {
  const auto ids = casestudies::case_study_ids();
  for (const auto& id : ids) {
    if (id == spec.case_study) return;
  }
  std::string known;
  for (const auto& id : ids) {
    if (!known.empty()) known += ", ";
    known += "'" + id + "'";
  }
  throw std::invalid_argument("spec: unknown case study '" + spec.case_study +
                              "' (known: " + known + ")");
}

}  // namespace

void validate_study_spec(const StudySpec& spec) {
  const StudyKindDef& def = kind_def(spec.kind);
  // Analytic kinds enumerate a fixed grid, so a repetitions override would
  // silently mean nothing — reject it instead.
  if (def.fixed_repetitions && spec.repetitions != 1) {
    throw std::invalid_argument(
        "study '" + std::string{def.name} + "' enumerates a fixed grid; " +
        "'repetitions' must stay 1 (shard the grid with --shard instead)");
  }
  // A kind that defaults case_study runs on its own task set ("all" and
  // "synthetic" are legal, figure.tasks names the real studies); a kind
  // that does not needs a registered case study.
  if (default_spec(spec.kind).case_study.empty()) validate_case_study(spec);
}

ResultTable run_study(const StudySpec& spec) {
  validate_study_spec(spec);
  metrics::Sink& sink = metrics::global_sink();
  std::uint64_t study_ident = 0;
  if (sink.is_enabled(metrics::kStudyRun)) {
    const std::string tag =
        std::string{to_string(spec.kind)} + ":" + spec.case_study;
    study_ident = rngx::hash_tag(tag);
    sink.set_label(study_ident, tag);
  }
  const metrics::ScopedSpan study_span{sink, metrics::kStudyRun, study_ident};
  // wall_time_ms is provenance, not identity: it is stripped by
  // --canonical and never merged or compared.
  const metrics::Stopwatch stopwatch;
  ResultTable table = kind_def(spec.kind).run(spec);
  const std::uint64_t elapsed_ns = stopwatch.elapsed_ns();

  table.name = std::string{to_string(spec.kind)} + ":" + spec.case_study;
  // The stored spec is the study's identity: shard and threads are
  // execution details (results are invariant to both), so they are
  // normalized away; provenance records the actual values.
  StudySpec normalized = spec;
  normalized.shard = ShardSpec{};
  normalized.threads = 1;
  table.spec = std::move(normalized);
  table.shard = spec.shard;
  table.seed = spec.seed;
  table.threads = spec.threads;
  table.wall_time_ms = static_cast<double>(elapsed_ns) / 1e6;
  return table;
}

std::vector<StudyKindInfo> registered_study_kinds() {
  std::vector<StudyKindInfo> out;
  for (const StudyKindDef& def : study_kinds()) {
    std::vector<std::string> keys;
    const io::Json doc = default_spec(def.kind).to_json();
    for (const auto& [key, value] : doc.at("params").as_object()) {
      keys.push_back(key);
    }
    out.push_back(StudyKindInfo{def.kind, std::string{def.name},
                                std::string{def.title}, def.shardable,
                                std::move(keys)});
  }
  return out;
}

std::string list_study_kinds_text() {
  std::string out = "registered study kinds (varbench run dispatches on "
                    "spec 'kind'):\n";
  for (const auto& info : registered_study_kinds()) {
    out += "  " + info.name;
    out.append(info.name.size() < 26 ? 26 - info.name.size() : 1, ' ');
    out += info.title + "\n";
    out += "    ";
    out += info.shardable ? "shardable" : "not shardable";
    if (!info.param_keys.empty()) {
      out += "; params:";
      for (const auto& key : info.param_keys) out += " " + key;
    }
    out += "\n";
  }
  return out;
}

io::Json study_kinds_json() {
  io::Json kinds = io::Json::array();
  for (const auto& info : registered_study_kinds()) {
    io::Json item = io::Json::object();
    item.set("name", info.name);
    item.set("title", info.title);
    item.set("shardable", info.shardable);
    io::Json params = io::Json::array();
    for (const auto& key : info.param_keys) params.push_back(io::Json{key});
    item.set("params", std::move(params));
    kinds.push_back(std::move(item));
  }
  return kinds;
}

std::string list_study_kinds_json() {
  io::Json doc = io::Json::object();
  doc.set("tool", "varbench");
  doc.set("version", std::string{kVersion});
  doc.set("kinds", study_kinds_json());
  return doc.dump(2) + "\n";
}

void print_summary(const ResultTable& table, std::FILE* out) {
  if (!table.is_complete()) {
    std::fprintf(out,
                 "partial artifact: shard %s of '%s' (%zu rows) — run "
                 "`varbench merge` over all %zu shard files for summaries\n",
                 table.shard.label().c_str(), table.name.c_str(),
                 table.rows.size(), table.shard.count);
    return;
  }
  if (!table.spec.has_value()) {
    std::fprintf(out, "'%s': %zu rows × %zu columns (seed %llu)\n",
                 table.name.c_str(), table.rows.size(), table.columns.size(),
                 static_cast<unsigned long long>(table.seed));
    return;
  }
  const StudyKindDef& def = kind_def(table.spec->kind);
  if (!def.claim.empty()) {
    std::fprintf(out, "%.*s\n  paper claim: %.*s\n",
                 static_cast<int>(def.title.size()), def.title.data(),
                 static_cast<int>(def.claim.size()), def.claim.data());
  }
  def.summarize(table, out);
}

}  // namespace varbench::study
