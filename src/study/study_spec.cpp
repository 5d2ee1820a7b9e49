#include "src/study/study_spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/io/spec_reader.h"
#include "src/study/study_kinds.h"

namespace varbench::study {

namespace {

constexpr std::string_view kSpecSchema = "varbench.study_spec.v1";

constexpr std::string_view kDomain = "spec";

std::string known_kinds() {
  std::string out;
  for (const StudyKindDef& def : study_kinds()) {
    if (!out.empty()) out += ", ";
    out += "'" + std::string{def.name} + "'";
  }
  return out;
}

/// Thin shims over the shared strict reader (src/io/spec_reader.h) binding
/// this file's error domain, one per StudyParams member type.
std::size_t read_size(const io::Json& v, std::string_view key) {
  return io::read_size(v, kDomain, key);
}

double read_double(const io::Json& v, std::string_view key) {
  return io::read_double(v, kDomain, key);
}

std::string read_string(const io::Json& v, std::string_view key) {
  return io::read_string(v, kDomain, key);
}

void read_value(const io::Json& v, std::string_view key, std::size_t& out) {
  out = read_size(v, key);
}
void read_value(const io::Json& v, std::string_view key, double& out) {
  out = read_double(v, key);
}
void read_value(const io::Json& v, std::string_view key, bool& out) {
  out = io::read_bool(v, kDomain, key);
}
void read_value(const io::Json& v, std::string_view key, std::string& out) {
  out = read_string(v, key);
}
void read_value(const io::Json& v, std::string_view key,
                std::vector<std::string>& out) {
  out = io::read_string_array(v, kDomain, key);
}
void read_value(const io::Json& v, std::string_view key,
                std::vector<std::size_t>& out) {
  out = io::read_size_array(v, kDomain, key);
}
void read_value(const io::Json& v, std::string_view key,
                std::vector<double>& out) {
  out = io::read_double_array(v, kDomain, key);
}

template <typename T>
io::Json value_json(const T& v) {
  return io::Json{v};
}
io::Json value_json(const std::vector<std::string>& v) {
  return io::string_array(v);
}
io::Json value_json(const std::vector<std::size_t>& v) {
  return io::size_array(v);
}
io::Json value_json(const std::vector<double>& v) {
  return io::double_array(v);
}

/// A list's first entry that an earlier entry equals, or null: a repeated
/// task, estimator, algorithm or grid point keys the same streams, so it
/// would only duplicate rows. A scalar repeats nothing.
template <typename T>
io::Json repeated_entry(const T&) {
  return io::Json{};
}
template <typename T>
io::Json repeated_entry(const std::vector<T>& v) {
  for (auto it = v.begin(); it != v.end(); ++it) {
    if (std::find(v.begin(), it, *it) != it) return io::Json{*it};
  }
  return io::Json{};
}

/// One StudyParams field: its ParamField bit, its key, and how to emit,
/// read and check it. The table is the single source of truth for key
/// names and key order; a kind's `params` mask selects rows.
struct ParamRow {
  unsigned mask;
  std::string_view key;
  io::Json (*emit)(const StudyParams&);
  void (*read)(StudyParams&, const io::Json&, std::string_view key);
  io::Json (*repeated)(const StudyParams&);
};

template <auto Member>
constexpr ParamRow param(unsigned mask, std::string_view key) {
  return {mask, key,
          [](const StudyParams& p) { return value_json(p.*Member); },
          [](StudyParams& p, const io::Json& v, std::string_view k) {
            read_value(v, k, p.*Member);
          },
          [](const StudyParams& p) { return repeated_entry(p.*Member); }};
}

constexpr ParamRow kParams[] = {
    param<&StudyParams::tasks>(kParamTasks, "tasks"),
    param<&StudyParams::estimators>(kParamEstimators, "estimators"),
    param<&StudyParams::hpo_algorithms>(kParamHpoAlgorithms,
                                        "hpo_algorithms"),
    param<&StudyParams::hpo_algo>(kParamHpoAlgo, "hpo_algo"),
    param<&StudyParams::hpo_repetitions>(kParamHpoRepetitions,
                                         "hpo_repetitions"),
    param<&StudyParams::hpo_budget>(kParamHpoBudget, "hpo_budget"),
    param<&StudyParams::include_numerical_noise>(kParamIncludeNumericalNoise,
                                                 "include_numerical_noise"),
    param<&StudyParams::algo>(kParamAlgo, "algo"),
    param<&StudyParams::budget>(kParamBudget, "budget"),
    param<&StudyParams::lr_mult>(kParamLrMult, "lr_mult"),
    param<&StudyParams::estimator>(kParamEstimator, "estimator"),
    param<&StudyParams::k>(kParamK, "k"),
    param<&StudyParams::gamma>(kParamGamma, "gamma"),
    param<&StudyParams::resamples>(kParamResamples, "resamples"),
    param<&StudyParams::num_resamples>(kParamNumResamples, "num_resamples"),
    param<&StudyParams::k_grid>(kParamKGrid, "k_grid"),
    param<&StudyParams::t_grid>(kParamTGrid, "t_grid"),
    param<&StudyParams::gamma_grid>(kParamGammaGrid, "gamma_grid"),
    param<&StudyParams::beta_grid>(kParamBetaGrid, "beta_grid"),
    param<&StudyParams::p_grid>(kParamPGrid, "p_grid"),
    param<&StudyParams::edges>(kParamEdges, "edges"),
};

io::Json params_to_json(const StudySpec& spec) {
  const unsigned declared = kind_def(spec.kind).params;
  io::Json p = io::Json::object();
  for (const ParamRow& row : kParams) {
    if ((declared & row.mask) != 0) {
      p.set(std::string{row.key}, row.emit(spec.figure));
    }
  }
  return p;
}

void params_from_json(StudySpec& spec, const io::Json& p) {
  const unsigned declared = kind_def(spec.kind).params;
  io::ObjectReader r{p, kDomain, "'params'"};
  for (const ParamRow& row : kParams) {
    if ((declared & row.mask) == 0) continue;
    if (const io::Json* v = r.find(row.key)) row.read(spec.figure, *v, row.key);
  }
  r.reject_unknown_keys();
}

void validate_common(const StudySpec& spec) {
  if (spec.case_study.empty()) {
    throw io::JsonError("spec: 'case_study' must not be empty");
  }
  if (!(spec.scale > 0.0) || spec.scale > 1.0) {
    throw io::JsonError("spec: 'scale' must be in (0, 1], got " +
                        std::to_string(spec.scale));
  }
  if (spec.repetitions == 0) {
    throw io::JsonError("spec: 'repetitions' must be >= 1");
  }
  if (spec.shard.count == 0 || spec.shard.index >= spec.shard.count) {
    throw io::JsonError("spec: shard " + spec.shard.label() +
                        " invalid (need index < count, count >= 1)");
  }
  reject_repeated_params(spec);
}

}  // namespace

void reject_repeated_params(const StudySpec& spec) {
  const unsigned declared = kind_def(spec.kind).params;
  for (const ParamRow& row : kParams) {
    if ((declared & row.mask) == 0) continue;
    const io::Json entry = row.repeated(spec.figure);
    if (!entry.is_null()) {
      throw io::JsonError("spec: 'params." + std::string{row.key} +
                          "' lists " + entry.dump() +
                          " more than once; list each entry once");
    }
  }
}

std::string_view to_string(StudyKind kind) { return kind_def(kind).name; }

StudyKind study_kind_from_string(std::string_view name) {
  for (const StudyKindDef& def : study_kinds()) {
    if (def.name == name) return def.kind;
  }
  throw io::JsonError("spec: unknown study kind '" + std::string{name} +
                      "' (known kinds: " + known_kinds() + ")");
}

ShardSpec ShardSpec::parse(std::string_view text) {
  const std::size_t slash = text.find('/');
  const auto parse_part = [&](std::string_view part,
                              std::string_view what) -> std::size_t {
    std::size_t value = 0;
    const auto [p, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc{} || p != part.data() + part.size() || part.empty()) {
      throw io::JsonError("shard: " + std::string{what} + " '" +
                          std::string{part} + "' is not a non-negative " +
                          "integer (expected i/N, e.g. 0/2)");
    }
    return value;
  };
  if (slash == std::string_view::npos) {
    throw io::JsonError("shard: '" + std::string{text} +
                        "' is not of the form i/N (e.g. 0/2)");
  }
  ShardSpec shard;
  shard.index = parse_part(text.substr(0, slash), "index");
  shard.count = parse_part(text.substr(slash + 1), "count");
  if (shard.count == 0 || shard.index >= shard.count) {
    throw io::JsonError("shard: " + shard.label() +
                        " invalid (need index < count, count >= 1)");
  }
  return shard;
}

io::Json StudySpec::to_json() const {
  io::Json doc = io::Json::object();
  doc.set("schema", io::Json{kSpecSchema});
  doc.set("kind", io::Json{to_string(kind)});
  doc.set("case_study", io::Json{case_study});
  doc.set("scale", io::Json{scale});
  doc.set("seed", io::Json{seed});
  doc.set("repetitions", io::Json{repetitions});
  doc.set("threads", io::Json{threads});
  if (!shard.is_unsharded()) {
    io::Json s = io::Json::object();
    s.set("index", io::Json{shard.index});
    s.set("count", io::Json{shard.count});
    doc.set("shard", std::move(s));
  }
  doc.set("params", params_to_json(*this));
  return doc;
}

std::string StudySpec::to_json_text() const { return to_json().dump(2) + "\n"; }

StudySpec StudySpec::from_json(const io::Json& doc) {
  if (!doc.is_object()) {
    throw io::JsonError("spec: document must be a JSON object, got " +
                        std::string{io::to_string(doc.type())});
  }
  io::ObjectReader r{doc, kDomain, "the spec"};
  if (const auto* schema = r.find("schema")) {
    const std::string& s = read_string(*schema, "schema");
    if (s != kSpecSchema) {
      throw io::JsonError("spec: unsupported schema '" + s + "' (this build " +
                          "reads '" + std::string{kSpecSchema} + "')");
    }
  }
  // Every key the document omits keeps the kind's default.
  StudySpec spec =
      default_spec(study_kind_from_string(read_string(r.at("kind"), "kind")));
  if (const auto* v = r.find("case_study")) {
    spec.case_study = read_string(*v, "case_study");
  } else if (spec.case_study.empty()) {
    // A kind without a default case study keeps the standard missing-key
    // error.
    spec.case_study = read_string(r.at("case_study"), "case_study");
  }
  if (const auto* v = r.find("scale")) spec.scale = read_double(*v, "scale");
  if (const auto* v = r.find("seed")) {
    spec.seed = read_size(*v, "seed");  // u64 == size_t on this platform
  }
  if (const auto* v = r.find("repetitions")) {
    spec.repetitions = read_size(*v, "repetitions");
  }
  if (const auto* v = r.find("threads")) {
    spec.threads = read_size(*v, "threads");
  }
  if (const auto* v = r.find("shard")) {
    io::ObjectReader s{*v, kDomain, "'shard'"};
    spec.shard.index = read_size(s.at("index"), "shard.index");
    spec.shard.count = read_size(s.at("count"), "shard.count");
    s.reject_unknown_keys();
  }
  if (const auto* v = r.find("params")) params_from_json(spec, *v);
  r.reject_unknown_keys();
  validate_common(spec);
  return spec;
}

StudySpec StudySpec::from_json_text(std::string_view text) {
  return from_json(io::Json::parse(text));
}

void apply_override(io::Json& doc, std::string_view key,
                    std::string_view value) {
  if (key.empty()) throw io::JsonError("--set: empty key");
  // Parse the value as JSON when it is one (numbers, bools, arrays, quoted
  // strings); otherwise treat it as a bare string, which is what users mean
  // by e.g. --set case_study=mhc_mlp.
  io::Json parsed;
  try {
    parsed = io::Json::parse(value);
  } catch (const io::JsonError&) {
    parsed = io::Json{std::string{value}};
  }
  io::Json* node = &doc;
  std::string_view rest = key;
  while (true) {
    const std::size_t dot = rest.find('.');
    const std::string part{rest.substr(0, dot)};
    if (part.empty()) {
      throw io::JsonError("--set: malformed key '" + std::string{key} + "'");
    }
    if (dot == std::string_view::npos) {
      node->set(part, std::move(parsed));
      return;
    }
    if (node->find(part) == nullptr) node->set(part, io::Json::object());
    node = node->find(part);
    rest = rest.substr(dot + 1);
  }
}

void apply_override(io::Json& doc, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos) {
    throw io::JsonError("--set expects key=value, got '" +
                        std::string{assignment} + "'");
  }
  apply_override(doc, assignment.substr(0, eq), assignment.substr(eq + 1));
}

}  // namespace varbench::study
