// Internal helpers shared by the study runners and summarizers:
// execution-context and shard-slice plumbing, task-set resolution, the
// grouped row-emission bookkeeping every multi-group figure table needs to
// keep `seq` a global enumeration (the merge contract, docs/study_api.md),
// and the one row grouping every summary is built from.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
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

/// The case studies of resolve_tasks(spec), in that order; each one's `id`
/// is its task. A runner whose plan spans several tasks keeps them alive
/// until the plan has run.
inline std::vector<casestudies::CaseStudy> task_case_studies(
    const StudySpec& spec) {
  std::vector<casestudies::CaseStudy> studies;
  for (const auto& task : resolve_tasks(spec)) {
    studies.push_back(casestudies::make_case_study(task, spec.scale));
  }
  return studies;
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

/// Rows of one table whose key columns hold equal cells, in table order.
class RowGroup {
 public:
  RowGroup(const ResultTable& table, std::vector<std::size_t> rows)
      : table_{&table}, rows_{std::move(rows)} {}

  /// The group's row indices into its table, in table order.
  [[nodiscard]] const std::vector<std::size_t>& rows() const { return rows_; }

  /// Cell `column` of the group's first row: the group's key when `column`
  /// is one of the keys it was grouped by.
  [[nodiscard]] CellView cell(std::string_view column) const {
    return table_->rows[rows_.front()][table_->column_index(column)];
  }

  /// The non-null cells of `column` as doubles, in row order (figF2 pads
  /// short curves with nulls).
  [[nodiscard]] std::vector<double> values(std::string_view column) const {
    const std::size_t c = table_->column_index(column);
    std::vector<double> out;
    out.reserve(rows_.size());
    for (const std::size_t r : rows_) {
      const CellView cell = table_->rows[r][c];
      if (!cell.is_null()) out.push_back(cell.as_double());
    }
    return out;
  }

  /// This group's rows grouped by equal cells in the `keys` columns, in
  /// first-appearance order. Equal cells compare as io::Json values do, so
  /// a key that repeats non-adjacently pools into one group.
  [[nodiscard]] std::vector<RowGroup> by(
      std::initializer_list<std::string_view> keys) const {
    std::vector<std::size_t> cols;
    for (const std::string_view key : keys) {
      cols.push_back(table_->column_index(key));
    }
    const auto same = [&](std::size_t a, std::size_t b) {
      for (const std::size_t c : cols) {
        if (!(table_->rows[a][c] == table_->rows[b][c])) return false;
      }
      return true;
    };
    std::vector<RowGroup> groups;
    for (const std::size_t r : rows_) {
      // Runners emit each group contiguously: try the latest group first.
      auto g = groups.rbegin();
      while (g != groups.rend() && !same(g->rows_.front(), r)) ++g;
      if (g == groups.rend()) {
        groups.emplace_back(*table_, std::vector<std::size_t>{r});
      } else {
        g->rows_.push_back(r);
      }
    }
    return groups;
  }

 private:
  const ResultTable* table_;
  std::vector<std::size_t> rows_;
};

/// Every row of `t`, as one group.
inline RowGroup all_rows(const ResultTable& t) {
  std::vector<std::size_t> rows(t.rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  return RowGroup{t, std::move(rows)};
}

/// Every row of `t` grouped by `keys` (RowGroup::by); the grouping every
/// summarizer starts from.
inline std::vector<RowGroup> group_rows(
    const ResultTable& t, std::initializer_list<std::string_view> keys) {
  return all_rows(t).by(keys);
}

/// An empty summary block: a spec-less table whose name is its heading.
inline ResultTable summary_block(std::string name,
                                 std::vector<std::string> columns) {
  ResultTable block;
  block.name = std::move(name);
  block.columns = std::move(columns);
  return block;
}

}  // namespace varbench::study::figures
