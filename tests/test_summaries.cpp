// Study summaries as tables: the grouping every summarizer is built from,
// print_summary's layout over report::render_table, the same tables for a
// merged campaign as for the unsharded run, and Fig. G.3's summary over
// groups outside Shapiro–Wilk's domain.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/report/render.h"
#include "src/study/figures/figures_common.h"
#include "src/study/result_table.h"
#include "src/study/study_kinds.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

/// Everything print_summary writes for `table`.
std::string printed(const ResultTable& table) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return "<no tmpfile>";
  report::print_summary(table, f);
  std::string text(static_cast<std::size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  return text;
}

ResultTable keyed_table() {
  ResultTable t;
  t.columns = {"seq", "task", "p", "hit"};
  const char* tasks[] = {"a", "a", "b", "a", "b", "a"};
  const double ps[] = {0.5, 0.5, 0.5, 0.9, 0.5, 0.5};
  for (std::size_t i = 0; i < 6; ++i) {
    t.add_row({Cell{i}, Cell{tasks[i]}, Cell{ps[i]}, Cell{i % 2}});
  }
  return t;
}

TEST(GroupRows, FirstAppearanceOrderPoolsRepeatedKeys) {
  const ResultTable t = keyed_table();
  const auto groups = figures::group_rows(t, {"task", "p"});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].cell("task").as_string(), "a");
  EXPECT_EQ(groups[0].rows(), (std::vector<std::size_t>{0, 1, 5}));
  EXPECT_EQ(groups[1].cell("task").as_string(), "b");
  EXPECT_EQ(groups[1].rows(), (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(groups[2].cell("p").as_double(), 0.9);
  EXPECT_EQ(groups[2].rows(), (std::vector<std::size_t>{3}));
  // Nested grouping keeps table order; values reads a group's column.
  const auto by_p = figures::group_rows(t, {"task"})[0].by({"p"});
  ASSERT_EQ(by_p.size(), 2u);
  EXPECT_EQ(by_p[0].values("hit"), (std::vector<double>{0.0, 1.0, 1.0}));
  EXPECT_EQ(figures::group_rows(ResultTable{}, {}).size(), 0u);
}

TEST(GroupRows, ValuesSkipNullCells) {
  ResultTable t;
  t.columns = {"seq", "v"};
  t.add_row({Cell{std::size_t{0}}, Cell{1.5}});
  t.add_row({Cell{std::size_t{1}}, Cell{}});
  t.add_row({Cell{std::size_t{2}}, Cell{2.5}});
  EXPECT_EQ(figures::all_rows(t).values("v"), (std::vector<double>{1.5, 2.5}));
}

TEST(RenderTable, NullCellsPrintAsADash) {
  ResultTable t;
  t.columns = {"name", "value"};
  t.add_row({Cell{"baseline"}, Cell{}});
  t.add_row({Cell{"next"}, Cell{0.25}});
  EXPECT_EQ(report::render_table(t, report::Format::kText),
            " name      value\n baseline      -\n next       0.25\n");
  EXPECT_EQ(report::render_table(t, report::Format::kCsv),
            "name,value\nbaseline,-\nnext,0.25\n");
  EXPECT_EQ(report::render_table(t, report::Format::kMarkdown),
            "| name | value |\n| --- | ---: |\n| baseline | - |\n"
            "| next | 0.25 |\n");
}

StudySpec fig06_spec() {
  StudySpec spec = default_spec(StudyKind::kFig06DetectionRates);
  spec.seed = 20260727;
  spec.repetitions = 4;
  spec.figure.tasks = {"cifar10_vgg11", "glue_rte_bert"};
  spec.figure.k = 5;
  spec.figure.resamples = 10;
  spec.figure.p_grid = {0.5, 0.75, 0.9};
  return spec;
}

TEST(PrintSummary, TitleClaimThenEveryBlockThroughRenderTable) {
  const ResultTable table = run_study(fig06_spec());
  const StudyKindDef& def = kind_def(StudyKind::kFig06DetectionRates);
  std::string want = std::string{def.title} + "\n  paper claim: " +
                     std::string{def.claim} + "\n";
  const auto blocks = def.summarize(table);
  ASSERT_EQ(blocks.size(), 2u);
  for (const ResultTable& block : blocks) {
    EXPECT_FALSE(block.spec.has_value());
    want += "\n" + block.name + "\n" +
            report::render_table(block, report::Format::kText);
  }
  EXPECT_EQ(printed(table), want);
}

TEST(PrintSummary, MergedShardsPrintTheUnshardedSummary) {
  const StudySpec spec = fig06_spec();
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    StudySpec shard = spec;
    shard.shard = ShardSpec{i, 2};
    shards.push_back(run_study(shard));
    EXPECT_EQ(printed(shards.back()).rfind("partial artifact: shard ", 0), 0u);
  }
  EXPECT_EQ(printed(merge_result_tables(std::move(shards))),
            printed(run_study(spec)));
}

TEST(Summaries, FigG3GroupsOutsideShapiroWilksDomainGetNullStatistics) {
  // Two repetitions: every group has n = 2 < 3, where the test is
  // undefined.
  StudySpec spec = default_spec(StudyKind::kFigG3Normality);
  spec.scale = 0.05;
  spec.repetitions = 2;
  spec.figure.tasks = {"mhc_mlp"};
  const ResultTable table = run_study(spec);
  std::vector<ResultTable> blocks;
  ASSERT_NO_THROW(blocks = kind_def(spec.kind).summarize(table));
  ASSERT_EQ(blocks.size(), 1u);
  const ResultTable& block = blocks[0];
  ASSERT_GT(block.rows.size(), 0u);
  const std::size_t w = block.column_index("W");
  const std::size_t p = block.column_index("p-value");
  const std::size_t verdict = block.column_index("verdict");
  for (const RowView row : block.rows) {
    EXPECT_TRUE(row[w].is_null());
    EXPECT_TRUE(row[p].is_null());
    const std::string& why = row[verdict].as_string();
    EXPECT_TRUE(why == "n < 3" || why == "constant") << why;
  }
  EXPECT_NE(printed(table).find("n < 3"), std::string::npos);
}

}  // namespace
}  // namespace varbench::study
