// Internal helpers shared by the study runners and summarizers: the
// execution context, task-set resolution, the row plan the runners
// declare their tables on (it keeps `seq` a global enumeration under any
// shard split, the merge contract of docs/study_api.md, and runs every
// replicate range as one parallel region), and the one row grouping every
// summary is built from.
#pragma once

#include <cstdint>
#include <functional>
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

/// A runner's table, declared as groups in `seq` order. A group is
/// `units` global units of `rows_per_unit` rows each; its first row's
/// `seq` is the number of rows every earlier group holds in the unsharded
/// table, and this shard emits only the rows of its slice of the group's
/// units. Replicate ranges go into one exec::ReplicatePlan, which run()
/// runs as one parallel region on the spec's threads before it emits
/// every group in declaration order, `seq` first. Closures handed to
/// replicates() or plan() run inside run(): they copy what they use, or
/// refer only to what outlives run().
class RowPlan {
 public:
  /// Emits row `row` of global unit `unit`, without its `seq`.
  using Emit = std::function<Row(std::size_t unit, std::size_t row)>;

  /// `columns` follow the leading `seq` column.
  RowPlan(const StudySpec& spec, const std::vector<std::string>& columns)
      : exec_{exec_of(spec)}, shard_{spec.shard} {
    table_.columns = {"seq"};
    table_.columns.insert(table_.columns.end(), columns.begin(),
                          columns.end());
  }

  /// This shard's units of a group of `units`.
  [[nodiscard]] exec::IndexRange slice(std::size_t units) const {
    return exec::shard_subrange(units, shard_.index, shard_.count);
  }

  /// Declare the next group; `emit` is called once the plan has run.
  void group(std::size_t units, std::size_t rows_per_unit, Emit emit) {
    groups_.push_back(
        Group{next_seq_, slice(units), rows_per_unit, std::move(emit)});
    next_seq_ += units * rows_per_unit;
  }

  /// A group whose units are replicates: `fn(unit, rng)` computes this
  /// shard's units in the plan, on the (master_seed, tag) streams, and
  /// `emit(unit, value, row)` reads each unit's value.
  template <typename T, typename Fn, typename EmitValue>
  void replicates(std::size_t units, std::size_t rows_per_unit,
                  std::uint64_t master_seed, std::string_view tag, Fn&& fn,
                  EmitValue emit) {
    const exec::IndexRange s = slice(units);
    const std::vector<T>& values =
        plan_.add<T>(s, master_seed, tag, std::forward<Fn>(fn));
    group(units, rows_per_unit,
          [&values, begin = s.begin, emit = std::move(emit)](
              std::size_t unit, std::size_t row) {
            return emit(unit, values.at(unit - begin), row);
          });
  }

  /// The plan, for callers that add their own ranges
  /// (core::add_variance_study) and declare groups over their results.
  [[nodiscard]] exec::ReplicatePlan& plan() { return plan_; }

  /// Run the plan (an empty one opens no region), then emit every group.
  [[nodiscard]] ResultTable run() {
    plan_.run(exec_);
    for (const Group& g : groups_) {
      for (std::size_t unit = g.slice.begin; unit < g.slice.end; ++unit) {
        for (std::size_t row = 0; row < g.rows_per_unit; ++row) {
          Row cells = g.emit(unit, row);
          cells.insert(cells.begin(),
                       Cell{g.first + unit * g.rows_per_unit + row});
          table_.add_row(cells);
        }
      }
    }
    return std::move(table_);
  }

 private:
  struct Group {
    std::size_t first;
    exec::IndexRange slice;
    std::size_t rows_per_unit;
    Emit emit;
  };

  exec::ExecContext exec_;
  ShardSpec shard_;
  ResultTable table_;
  exec::ReplicatePlan plan_;
  std::vector<Group> groups_;
  std::size_t next_seq_ = 0;
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
