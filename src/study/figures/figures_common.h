// Internal helpers shared by the study runners: execution-context and
// shard-slice plumbing, task-set resolution, and the grouped row-emission
// bookkeeping every multi-group figure table needs to keep `seq` a global
// enumeration (the merge contract, docs/study_api.md).
#pragma once

#include <string>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_replicate.h"
#include "src/study/figures/figures.h"
#include "src/study/study_spec.h"

namespace varbench::study::figures {

inline exec::ExecContext exec_of(const StudySpec& spec) {
  return exec::ExecContext{spec.threads};
}

inline exec::IndexRange slice_of(const StudySpec& spec, std::size_t n) {
  return exec::shard_subrange(n, spec.shard.index, spec.shard.count);
}

/// The case studies / calibrations a figure spans. A non-"all"
/// case_study always narrows to that one task — it must win over
/// figure.tasks because several kinds (fig02, figF2) pre-populate a
/// default task subset that would otherwise silently override the user's
/// explicit narrowing. With case_study "all", figure.tasks selects the
/// set (empty → every registered task).
inline std::vector<std::string> resolve_tasks(const StudySpec& spec) {
  if (spec.case_study != "all") return {spec.case_study};
  if (!spec.figure.tasks.empty()) return spec.figure.tasks;
  return casestudies::case_study_ids();
}

/// Tracks the seq offset of the current group within the FULL (unsharded)
/// enumeration while a shard emits only its slice of each group.
class GroupSeq {
 public:
  /// Enter a group of `group_size` global units (each unit emitting
  /// `rows_per_unit` rows) and return the seq of the group's first row.
  std::size_t enter(std::size_t group_size, std::size_t rows_per_unit = 1) {
    const std::size_t start = offset_;
    rows_per_unit_ = rows_per_unit;
    offset_ += group_size * rows_per_unit;
    return start;
  }
  /// seq of row `row` (< rows_per_unit) of global unit `unit` in the group
  /// most recently entered.
  [[nodiscard]] std::size_t seq(std::size_t group_start, std::size_t unit,
                                std::size_t row = 0) const {
    return group_start + unit * rows_per_unit_ + row;
  }

 private:
  std::size_t offset_ = 0;
  std::size_t rows_per_unit_ = 1;
};

}  // namespace varbench::study::figures
