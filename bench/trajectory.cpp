#include "bench/trajectory.h"

#include <filesystem>
#include <utility>

#include "src/io/json.h"

namespace varbench::benchutil {

namespace {

constexpr std::string_view kSchema = "varbench.bench_trajectory.v1";

std::uint64_t field_u64(const io::Json& row, const char* key,
                        const std::string& path) {
  const io::Json* v = row.find(key);
  if (v == nullptr) {
    throw io::JsonError{path + ": trajectory row missing '" +
                        std::string{key} + "'"};
  }
  return v->as_uint64();
}

std::string field_str(const io::Json& row, const char* key,
                      const std::string& path) {
  const io::Json* v = row.find(key);
  if (v == nullptr) {
    throw io::JsonError{path + ": trajectory row missing '" +
                        std::string{key} + "'"};
  }
  return v->as_string();
}

}  // namespace

Trajectory Trajectory::load(const std::string& path) {
  Trajectory traj;
  if (!std::filesystem::exists(path)) return traj;
  const std::string text = io::read_file(path);
  // An empty (or whitespace-only) file is the same first-run state as a
  // missing one — `touch`ed by a wrapper script, or left by an interrupted
  // write. The gate records a baseline instead of failing to parse.
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) return traj;
  const io::Json doc = io::Json::parse(text);
  const io::Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != kSchema) {
    throw io::JsonError{path + ": not a " + std::string{kSchema} +
                        " trajectory file"};
  }
  const io::Json* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    throw io::JsonError{path + ": trajectory file has no \"rows\" array"};
  }
  for (const io::Json& r : rows->as_array()) {
    TrajectoryRow row;
    row.bench = field_str(r, "bench", path);
    row.unit = field_str(r, "unit", path);
    row.min_ns = field_u64(r, "min_ns", path);
    row.repeats = field_u64(r, "repeats", path);
    row.version = field_str(r, "version", path);
    if (const io::Json* label = r.find("label")) row.label = label->as_string();
    traj.rows_.push_back(std::move(row));
  }
  return traj;
}

std::string Trajectory::to_json_text() const {
  io::Json doc = io::Json::object();
  doc.set("schema", std::string{kSchema});
  io::Json rows = io::Json::array();
  for (const TrajectoryRow& row : rows_) {
    io::Json r = io::Json::object();
    r.set("bench", row.bench);
    r.set("unit", row.unit);
    r.set("min_ns", row.min_ns);
    r.set("repeats", row.repeats);
    r.set("version", row.version);
    r.set("label", row.label);
    rows.push_back(std::move(r));
  }
  doc.set("rows", std::move(rows));
  return doc.dump(2) + "\n";
}

void Trajectory::save(const std::string& path) const {
  io::write_file_atomic(path, to_json_text());
}

std::uint64_t Trajectory::best_ns(const std::string& bench) const {
  std::uint64_t best = 0;
  for (const TrajectoryRow& row : rows_) {
    if (row.bench != bench) continue;
    if (best == 0 || row.min_ns < best) best = row.min_ns;
  }
  return best;
}

std::vector<GateCheck> gate_checks(const Trajectory& prior,
                                   const std::vector<TrajectoryRow>& fresh,
                                   double threshold,
                                   std::uint64_t min_abs_ns) {
  std::vector<GateCheck> checks;
  checks.reserve(fresh.size());
  for (const TrajectoryRow& row : fresh) {
    GateCheck check;
    check.row = row;
    check.best_ns = prior.best_ns(row.bench);
    if (check.best_ns > 0) {
      check.ratio =
          static_cast<double>(row.min_ns) / static_cast<double>(check.best_ns);
      check.regressed =
          check.ratio > threshold && row.min_ns > check.best_ns + min_abs_ns;
    }
    checks.push_back(std::move(check));
  }
  return checks;
}

}  // namespace varbench::benchutil
