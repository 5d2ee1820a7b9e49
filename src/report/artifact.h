// Artifact loading for the analysis subsystem: turn anything on disk — a
// single ResultTable JSON (shard or complete), a directory of shard
// artifacts, or a whole campaign state directory — into in-memory tables
// ready for summarization, with strict schema validation and errors that
// name the offending file. No producing StudySpec is required: everything
// downstream derives from the raw rows (docs/reporting.md).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/study/result_table.h"

namespace varbench::report {

struct LoadedArtifact {
  std::string source;        // the path(s) the table came from
  study::ResultTable table;
};

/// Per-task wall-time provenance totals read from a campaign manifest
/// (campaign.json). Wall time is provenance, never identity — it is
/// surfaced only when reporting on a campaign directory, so reports on
/// bare artifacts stay byte-comparable across executions.
struct CampaignProvenance {
  std::size_t tasks = 0;
  std::size_t tasks_with_wall_time = 0;
  double total_wall_ms = 0.0;
  /// One entry per study: ("s<k> <kind>:<case_study>", summed ms).
  std::vector<std::pair<std::string, double>> study_wall_ms;
};

/// The shard-invariant identity of a table: everything merge requires to
/// match (name, seed, columns, spec), rendered to one comparable string.
[[nodiscard]] std::string study_identity(const study::ResultTable& t);

/// The artifact files directly inside `dir`, sorted: regular `*.json` and
/// `*.vbt` files (freely mixed — ResultTable::load dispatches on content),
/// except a campaign's `campaign.json` manifest; in-flight `.part` files
/// are skipped. The one listing behind load_artifact_dir and `varbench
/// merge <dir>`.
[[nodiscard]] std::vector<std::string> artifact_files_in(
    const std::string& dir);

/// Load one artifact file. Throws io::JsonError naming the file on
/// unreadable input, malformed JSON, unknown schema, or shape violations.
/// A shard artifact loads fine (`table.is_complete()` is false);
/// summarization is what requires completeness.
[[nodiscard]] LoadedArtifact load_artifact(const std::string& path);

struct DirArtifacts {
  /// One complete table per study found, in deterministic (path) order.
  /// Shard sets are merged on the fly; merging validates the partition.
  std::vector<LoadedArtifact> studies;
  /// Present when the directory holds a campaign.json manifest.
  std::optional<CampaignProvenance> provenance;
};

/// Load every study from a directory. A campaign state dir reads its
/// merged/ outputs (falling back to merging artifacts/); a plain directory
/// of shard or complete artifacts groups the *.json files by study
/// identity (name, seed, columns, spec) and merges each group. Throws
/// io::JsonError on an empty directory, an invalid file, or an incomplete
/// shard set.
[[nodiscard]] DirArtifacts load_artifact_dir(const std::string& dir);

}  // namespace varbench::report
