#include "src/metrics/trace_file.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <utility>

namespace varbench::metrics {

namespace {

constexpr std::string_view kSchema = "varbench.trace.v1";
constexpr std::string_view kSuffix = ".trace.json";

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw io::JsonError{"trace file '" + path + "': " + what};
}

std::string hex_ident(std::uint64_t ident) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(ident));
  return std::string{buf};
}

const std::string* find_label(const TraceFile& file, std::uint64_t ident) {
  for (const auto& [known, label] : file.labels) {
    if (known == ident) return &label;
  }
  return nullptr;
}

}  // namespace

void append(TraceFile& into, TraceFile&& extra) {
  into.dropped += extra.dropped;
  into.spans.insert(into.spans.end(), extra.spans.begin(), extra.spans.end());
  std::sort(into.spans.begin(), into.spans.end());
  for (auto& [ident, label] : extra.labels) {
    if (find_label(into, ident) == nullptr) {
      into.labels.emplace_back(ident, std::move(label));
    }
  }
  std::sort(into.labels.begin(), into.labels.end());
}

std::string to_json_text(const TraceFile& file) {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kSchema});
  doc.set("process", io::Json{file.process});
  doc.set("dropped", io::Json{file.dropped});
  io::Json spans = io::Json::array();
  for (const SpanEvent& e : file.spans) {
    io::Json row = io::Json::object();
    row.set("span", io::Json{kMetricDefs[e.span].name});
    row.set("ident", io::Json{e.ident});
    row.set("tid", io::Json{e.tid});
    row.set("start_ns", io::Json{e.start_ns});
    row.set("dur_ns", io::Json{e.dur_ns});
    spans.push_back(std::move(row));
  }
  doc.set("spans", std::move(spans));
  io::Json labels = io::Json::array();
  for (const auto& [ident, label] : file.labels) {
    io::Json row = io::Json::object();
    row.set("ident", io::Json{ident});
    row.set("label", io::Json{label});
    labels.push_back(std::move(row));
  }
  doc.set("labels", std::move(labels));
  return doc.dump(2) + "\n";
}

TraceFile parse_trace_file(const std::string& text, const std::string& path) {
  io::Json doc;
  try {
    doc = io::Json::parse(text);
  } catch (const io::JsonError& e) {
    fail(path, e.what());
  }
  if (!doc.is_object()) fail(path, "top level is not an object");
  const io::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    fail(path, "missing or unsupported schema (want '" + std::string{kSchema} +
                   "')");
  }
  TraceFile out;
  out.process = doc.at("process").as_string();
  if (const io::Json* dropped = doc.find("dropped"); dropped != nullptr) {
    out.dropped = dropped->as_uint64();
  }
  for (const io::Json& row : doc.at("spans").as_array()) {
    SpanEvent e;
    const std::string& name = row.at("span").as_string();
    e.span = kNoMetric;
    for (MetricId id = 0; id < kNumMetrics; ++id) {
      const MetricDef& def = kMetricDefs[id];
      if (def.name == name && is_event(def.kind)) e.span = id;
    }
    if (e.span == kNoMetric) fail(path, "unknown span name '" + name + "'");
    e.ident = row.at("ident").as_uint64();
    e.tid = row.at("tid").as_uint64();
    e.start_ns = row.at("start_ns").as_uint64();
    e.dur_ns = row.at("dur_ns").as_uint64();
    out.spans.push_back(e);
  }
  for (const io::Json& row : doc.at("labels").as_array()) {
    out.labels.emplace_back(row.at("ident").as_uint64(),
                            row.at("label").as_string());
  }
  return out;
}

void write_trace_file(const std::string& path, const TraceFile& file) {
  io::write_file(path, to_json_text(file));
}

TraceFile read_trace_file(const std::string& path) {
  return parse_trace_file(io::read_file(path), path);
}

std::string worker_trace_name(const std::string& task_id) {
  return "worker-" + task_id + std::string{kSuffix};
}

std::size_t StitchedTrace::total_spans() const {
  std::size_t n = 0;
  for (const TraceFile& file : processes) n += file.spans.size();
  return n;
}

StitchedTrace stitch_state_dir(const std::string& state_dir) {
  namespace fs = std::filesystem;
  StitchedTrace out;
  if (fs::is_regular_file(state_dir)) {  // `run --trace-out`'s one file
    out.processes.push_back(read_trace_file(state_dir));
    return out;
  }
  const fs::path traces_dir = fs::path{state_dir} / "traces";
  if (!fs::is_directory(traces_dir)) {
    throw io::JsonError{"trace: no traces/ directory under '" + state_dir +
                        "' — was the campaign run with --trace?"};
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator{traces_dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > kSuffix.size() && name.ends_with(kSuffix)) {
      paths.push_back(entry.path().string());
    }
  }
  if (paths.empty()) {
    throw io::JsonError{"trace: '" + traces_dir.string() +
                        "' contains no *.trace.json files — was the campaign "
                        "run with --trace?"};
  }
  std::sort(paths.begin(), paths.end());
  out.processes.reserve(paths.size());
  for (const std::string& path : paths) {
    out.processes.push_back(read_trace_file(path));
  }
  return out;
}

io::Json chrome_trace_json(const StitchedTrace& stitched) {
  io::Json events = io::Json::array();
  for (std::size_t i = 0; i < stitched.processes.size(); ++i) {
    const TraceFile& file = stitched.processes[i];
    const std::uint64_t pid = static_cast<std::uint64_t>(i) + 1;
    {
      io::Json meta = io::Json::object();
      meta.set("name", io::Json{"process_name"});
      meta.set("ph", io::Json{"M"});
      meta.set("pid", io::Json{pid});
      meta.set("tid", io::Json{std::uint64_t{0}});
      io::Json args = io::Json::object();
      args.set("name", io::Json{file.process});
      meta.set("args", std::move(args));
      events.push_back(std::move(meta));
    }
    std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
    for (const SpanEvent& e : file.spans) base = std::min(base, e.start_ns);
    for (const SpanEvent& e : file.spans) {
      const MetricDef& def = kMetricDefs[e.span];
      const bool span = def.kind == MetricKind::kSpan;
      io::Json row = io::Json::object();
      row.set("name", io::Json{def.name});
      row.set("cat", io::Json{def.subsystem});
      row.set("ph", io::Json{span ? "X" : "i"});
      if (!span) row.set("s", io::Json{"t"});  // instant scope: thread
      row.set("ts", io::Json{static_cast<double>(e.start_ns - base) / 1e3});
      if (span) row.set("dur", io::Json{static_cast<double>(e.dur_ns) / 1e3});
      row.set("pid", io::Json{pid});
      row.set("tid", io::Json{e.tid});
      io::Json args = io::Json::object();
      args.set("ident", io::Json{hex_ident(e.ident)});
      if (const std::string* label = find_label(file, e.ident);
          label != nullptr) {
        args.set("label", io::Json{*label});
      }
      row.set("args", std::move(args));
      events.push_back(std::move(row));
    }
  }
  io::Json doc = io::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", io::Json{"ms"});
  return doc;
}

study::ResultTable summary_table(const StitchedTrace& stitched) {
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::array<Agg, kNumMetrics> aggs{};
  for (const TraceFile& file : stitched.processes) {
    for (const SpanEvent& e : file.spans) {
      Agg& a = aggs[e.span];
      ++a.count;
      a.total_ns += e.dur_ns;
      a.max_ns = std::max(a.max_ns, e.dur_ns);
    }
  }
  study::ResultTable table;
  table.name = "trace:summary";
  table.columns = {"seq",   "span",     "subsystem", "kind",
                   "count", "total_ms", "mean_ms",   "max_ms"};
  std::uint64_t seq = 0;
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    const Agg& a = aggs[id];
    if (a.count == 0) continue;
    const MetricDef& def = kMetricDefs[id];
    study::Row row;
    row.reserve(table.columns.size());
    row.push_back(io::Json{seq++});
    row.push_back(io::Json{def.name});
    row.push_back(io::Json{def.subsystem});
    row.push_back(io::Json{kind_name(def.kind)});
    row.push_back(io::Json{a.count});
    row.push_back(io::Json{static_cast<double>(a.total_ns) / 1e6});
    row.push_back(io::Json{static_cast<double>(a.total_ns) / 1e6 /
                           static_cast<double>(a.count)});
    row.push_back(io::Json{static_cast<double>(a.max_ns) / 1e6});
    table.add_row(std::move(row));
  }
  return table;
}

std::vector<std::pair<MetricId, std::uint64_t>> span_shape(
    const StitchedTrace& stitched) {
  std::vector<std::pair<MetricId, std::uint64_t>> out;
  out.reserve(stitched.total_spans());
  for (const TraceFile& file : stitched.processes) {
    for (const SpanEvent& e : file.spans) out.emplace_back(e.span, e.ident);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace varbench::metrics
