#include "src/metrics/table.h"

#include <cstdio>
#include <utility>

namespace varbench::metrics {

study::ResultTable to_result_table(const Snapshot& snapshot,
                                   std::string name) {
  study::ResultTable table;
  table.name = std::move(name);
  table.columns = {"seq",  "metric", "subsystem", "kind", "unit", "count",
                   "sum",  "mean",   "p50",       "p90",  "p99"};
  std::uint64_t seq = 0;
  for (const MetricSnapshot& m : snapshot.metrics) {
    const MetricDef& def = kMetricDefs[m.id];
    const bool binned = def.kind != MetricKind::kCounter;
    study::Row row;
    row.reserve(table.columns.size());
    row.push_back(io::Json{seq++});
    row.push_back(io::Json{def.name});
    row.push_back(io::Json{def.subsystem});
    row.push_back(io::Json{kind_name(def.kind)});
    row.push_back(io::Json{def.unit});
    row.push_back(io::Json{m.count});
    row.push_back(io::Json{m.sum});
    row.push_back(io::Json{m.mean()});
    row.push_back(io::Json{binned ? m.percentile_upper(0.50) : 0});
    row.push_back(io::Json{binned ? m.percentile_upper(0.90) : 0});
    row.push_back(io::Json{binned ? m.percentile_upper(0.99) : 0});
    table.add_row(std::move(row));
  }
  return table;
}

io::Json registry_json() {
  io::Json items = io::Json::array();
  for (std::size_t i = 0; i < kMetricDefs.size(); ++i) {
    const MetricDef& def = kMetricDefs[i];
    io::Json item = io::Json::object();
    item.set("id", static_cast<std::uint64_t>(i));
    item.set("name", def.name);
    item.set("subsystem", def.subsystem);
    item.set("kind", kind_name(def.kind));
    item.set("unit", def.unit);
    item.set("help", def.help);
    items.push_back(std::move(item));
  }
  return items;
}

std::string registry_text() {
  std::string out = "registered metrics (id order is stable; append-only):\n";
  for (std::size_t i = 0; i < kMetricDefs.size(); ++i) {
    const MetricDef& def = kMetricDefs[i];
    char line[256];
    std::snprintf(line, sizeof(line), "  %3zu  %-28s %-9s %-9s %s\n", i,
                  std::string{def.name}.c_str(),
                  std::string{kind_name(def.kind)}.c_str(),
                  std::string{def.unit}.c_str(), std::string{def.help}.c_str());
    out += line;
  }
  return out;
}

}  // namespace varbench::metrics
