#include "src/report/artifact.h"

#include <algorithm>
#include <filesystem>

#include "src/campaign/work_queue.h"
#include "src/io/json.h"

namespace varbench::report {

namespace fs = std::filesystem;

std::string study_identity(const study::ResultTable& t) {
  std::string key = t.name + '\n' + std::to_string(t.seed) + '\n';
  for (const auto& c : t.columns) key += c + ',';
  key += '\n';
  if (t.spec.has_value()) key += t.spec->to_json().dump();
  return key;
}

namespace {

CampaignProvenance read_campaign_provenance(const std::string& path) {
  // A v2 manifest's "metrics" block describes the run, not the results:
  // known to the schema rule, ignored for reporting.
  const campaign::Manifest manifest = campaign::read_manifest(path);
  CampaignProvenance prov;
  const auto& studies = manifest.studies;
  prov.study_wall_ms.reserve(studies.size());
  for (std::size_t k = 0; k < studies.size(); ++k) {
    // Label from the raw spec document (kind + case_study are required spec
    // keys); the spec is not re-validated — provenance must stay readable
    // even when this build cannot run the study.
    const std::string label = "s" + std::to_string(k) + " " +
                              studies[k].at("kind").as_string() + ":" +
                              studies[k].at("case_study").as_string();
    prov.study_wall_ms.emplace_back(label, 0.0);
  }
  // A report over a partial campaign would silently look complete (only
  // the finished studies reach merged/) — refuse instead of under-reporting.
  std::vector<std::string> unfinished;
  for (const campaign::TaskRecord& task : manifest.tasks) {
    if (task.status != campaign::TaskStatus::kDone) {
      unfinished.push_back(task.id);
    }
  }
  if (!unfinished.empty()) {
    std::string list;
    for (const auto& id : unfinished) {
      if (!list.empty()) list += ", ";
      list += id;
    }
    throw io::JsonError(
        "report: campaign at '" + path + "' is incomplete — " +
        std::to_string(unfinished.size()) + " task(s) not done (" + list +
        "); finish it (varbench campaign --resume) or report a merged "
        "artifact directly");
  }
  for (const campaign::TaskRecord& task : manifest.tasks) {
    ++prov.tasks;
    const double ms = task.wall_time_ms;
    if (ms <= 0.0) continue;  // never ran (or a pre-provenance manifest)
    ++prov.tasks_with_wall_time;
    prov.total_wall_ms += ms;
    if (task.study < prov.study_wall_ms.size()) {
      prov.study_wall_ms[task.study].second += ms;
    }
  }
  return prov;
}

}  // namespace

std::vector<std::string> artifact_files_in(const std::string& dir) {
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
  std::sort(files.begin(), files.end());
  return files;
}

LoadedArtifact load_artifact(const std::string& path) {
  if (fs::is_directory(path)) {
    throw io::JsonError("report: '" + path +
                        "' is a directory — load_artifact_dir handles those");
  }
  return LoadedArtifact{path, study::ResultTable::load(path)};
}

DirArtifacts load_artifact_dir(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    throw io::JsonError("report: '" + dir + "' is not a directory");
  }
  DirArtifacts out;
  const fs::path manifest = fs::path{dir} / "campaign.json";
  if (fs::is_regular_file(manifest)) {
    out.provenance = read_campaign_provenance(manifest.string());
  }

  // A campaign state dir prefers its merged/ outputs (already complete and
  // canonical); otherwise its artifacts/ shards; otherwise the directory's
  // own *.json files.
  fs::path scan{dir};
  if (fs::is_directory(fs::path{dir} / "merged") &&
      !artifact_files_in((fs::path{dir} / "merged").string()).empty()) {
    scan = fs::path{dir} / "merged";
  } else if (fs::is_directory(fs::path{dir} / "artifacts")) {
    scan = fs::path{dir} / "artifacts";
  }
  const auto files = artifact_files_in(scan.string());
  if (files.empty()) {
    throw io::JsonError("report: no artifacts (*.json, *.vbt) in '" +
                        scan.string() + "'");
  }

  // Group the files by study identity (first-appearance order over the
  // sorted paths), then merge each group into its complete table.
  std::vector<std::string> keys;
  std::vector<std::vector<std::string>> group_paths;
  std::vector<std::vector<study::ResultTable>> group_tables;
  for (const auto& path : files) {
    study::ResultTable table = study::ResultTable::load(path);
    const std::string key = study_identity(table);
    const auto it = std::find(keys.begin(), keys.end(), key);
    const std::size_t gi = static_cast<std::size_t>(it - keys.begin());
    if (it == keys.end()) {
      keys.push_back(key);
      group_paths.emplace_back();
      group_tables.emplace_back();
    }
    group_paths[gi].push_back(path);
    group_tables[gi].push_back(std::move(table));
  }
  for (std::size_t gi = 0; gi < keys.size(); ++gi) {
    auto& tables = group_tables[gi];
    if (tables.size() == 1 && tables.front().is_complete()) {
      out.studies.push_back(
          LoadedArtifact{group_paths[gi].front(), std::move(tables.front())});
      continue;
    }
    const std::string name = tables.front().name;
    try {
      study::ResultTable merged = study::merge_result_tables(std::move(tables));
      out.studies.push_back(LoadedArtifact{
          scan.string() + " (" + std::to_string(group_paths[gi].size()) +
              " shards of '" + name + "')",
          std::move(merged)});
    } catch (const io::JsonError& e) {
      throw io::JsonError("report: study '" + name + "' in '" +
                          scan.string() + "': " + e.what());
    }
  }
  return out;
}

}  // namespace varbench::report
