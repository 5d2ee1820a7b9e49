// The §6 / appendix cohort studies: many-contestant competitions, multi-
// dataset comparisons, the MHC model-design tables, and the App. B
// splitter ablation. Each repetition (one shared ξ draw measured under
// every contestant/variant/design) runs on its own stream, so the paired
// structure survives sharding exactly.
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/compare/multiple.h"
#include "src/core/pipeline.h"
#include "src/core/splitter.h"
#include "src/math/matrix.h"
#include "src/ml/dataset.h"
#include "src/ml/metrics.h"
#include "src/ml/synthetic.h"
#include "src/ml/train.h"
#include "src/rngx/variation.h"
#include "src/stats/descriptive.h"
#include "src/stats/multi_dataset.h"
#include "src/stats/tests.h"
#include "src/study/figures/figures_common.h"

namespace varbench::study::figures {

// ----------------------------------------------------- multi_contestants

namespace {

struct Contestant {
  std::string name;
  hpo::ParamPoint params;
};

/// Six contestants: the default recipe plus variations of decreasing
/// quality, two nearly tied at the top (the bench's §6 cast). Parameters
/// absent from a task's search space are simply ignored by the pipeline.
std::vector<Contestant> contestant_entries(
    const core::LearningPipeline& pipeline) {
  std::vector<Contestant> entries;
  const auto defaults = pipeline.default_params();
  auto tuned_a = defaults;
  tuned_a["weight_decay"] = 0.008;  // the best recipe at this scale...
  entries.push_back({"tuned-A", tuned_a});
  auto tuned_b = tuned_a;
  tuned_b["lr_gamma"] = 0.9705;  // ...and a statistically-tied twin
  entries.push_back({"tuned-B", tuned_b});
  entries.push_back({"default", defaults});
  auto slow = defaults;
  slow["learning_rate"] = 0.004;
  entries.push_back({"slow-lr", slow});
  auto fast = defaults;
  fast["learning_rate"] = 0.25;
  fast["momentum"] = 0.98;
  entries.push_back({"hot-lr", fast});
  auto crippled = defaults;
  crippled["learning_rate"] = 0.0012;
  entries.push_back({"crippled", crippled});
  return entries;
}

}  // namespace

ResultTable run_multi_contestants(const StudySpec& spec) {
  RowPlan rows{spec, {"contestant", "rep", "measure"}};
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto entries = contestant_entries(*cs.pipeline);
  // Paired design: every contestant sees the same per-rep ξ draw.
  rows.replicates<std::vector<double>>(
      spec.repetitions, entries.size(),
      rngx::derive_seed(spec.seed, "contestants"), "multi_contestants_rep",
      [&](std::size_t, rngx::Rng& rng) {
        const auto seeds = rngx::VariationSeeds::random(rng);
        std::vector<double> out;
        out.reserve(entries.size());
        for (const auto& entry : entries) {
          out.push_back(core::measure_with_params(
              *cs.pipeline, *cs.pool, *cs.splitter, entry.params, seeds));
        }
        return out;
      },
      [&entries](std::size_t rep, const std::vector<double>& measures,
                 std::size_t c) {
        return Row{Cell{entries[c].name}, Cell{rep}, Cell{measures.at(c)}};
      });
  return rows.run();
}

std::vector<ResultTable> summarize_multi_contestants(const ResultTable& t) {
  const StudySpec& spec = t.spec.value();
  std::vector<std::string> names;
  compare::ContestantScores scores;
  for (const RowGroup& contestant : group_rows(t, {"contestant"})) {
    names.push_back(contestant.cell("contestant").as_string());
    scores.push_back(contestant.values("measure"));
  }

  ResultTable means = summary_block("mean performance per contestant",
                                    {"contestant", "mean", "std"});
  for (std::size_t c = 0; c < names.size(); ++c) {
    means.add_row({Cell{names[c]}, Cell{stats::mean(scores[c])},
                   Cell{stats::stddev(scores[c])}});
  }

  std::vector<std::string> columns{"contestant"};
  columns.insert(columns.end(), names.begin(), names.end());
  ResultTable pairwise =
      summary_block("pairwise P(row > column)", std::move(columns));
  const auto pab = compare::pairwise_pab_matrix(scores);
  for (std::size_t i = 0; i < names.size(); ++i) {
    Row row{Cell{names[i]}};
    for (std::size_t j = 0; j < names.size(); ++j) {
      row.push_back(Cell{pab(i, j)});
    }
    pairwise.add_row(row);
  }

  rngx::Rng top_rng{rngx::derive_seed(spec.seed, "top")};
  const auto top = compare::significance_top_group(
      exec::ExecContext::serial(), scores, top_rng, spec.figure.gamma, 0.05,
      spec.figure.resamples);
  std::string together;
  for (const auto idx : top.group) {
    together += (together.empty() ? "" : " ") + names[idx];
  }
  ResultTable top_group = summary_block(
      "top group (best + all not significantly-and-meaningfully worse)",
      {"best by mean", "Bonferroni-adjusted alpha", "report together"});
  top_group.add_row({Cell{names[top.best]}, Cell{top.adjusted_alpha},
                     Cell{together}});

  // Near-tied contestants split P(rank 1): declaring a single winner is
  // arbitrary, which is why the paper recommends reporting the whole
  // significance group.
  rngx::Rng boot_rng{rngx::derive_seed(spec.seed, "rank")};
  const auto stability = compare::ranking_stability(
      exec::ExecContext::serial(), scores, boot_rng,
      4 * spec.figure.resamples);
  std::vector<std::string> rank_columns{"contestant"};
  for (std::size_t r = 0; r < names.size(); ++r) {
    rank_columns.push_back("rank " + std::to_string(r + 1) + " %");
  }
  ResultTable ranks =
      summary_block("ranking stability under bootstrap of the splits",
                    std::move(rank_columns));
  for (std::size_t c = 0; c < names.size(); ++c) {
    Row row{Cell{names[c]}};
    for (std::size_t r = 0; r < names.size(); ++r) {
      row.push_back(Cell{100.0 * stability.rank_probability(c, r)});
    }
    ranks.add_row(row);
  }
  return {std::move(means), std::move(pairwise), std::move(top_group),
          std::move(ranks)};
}

// -------------------------------------------------------- multi_dataset

namespace {

constexpr std::array<std::pair<std::string_view, double>, 3> kVariants{
    {{"tuned", 1.0}, {"half-lr", 0.5}, {"tenth-lr", 0.1}}};

std::size_t variant_index(const std::string& name) {
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    if (kVariants[v].first == name) return v;
  }
  throw std::invalid_argument("multi_dataset: unknown variant '" + name +
                              "'");
}

}  // namespace

ResultTable run_multi_dataset(const StudySpec& spec) {
  using Runs = std::array<double, kVariants.size()>;
  const auto studies = task_case_studies(spec);
  RowPlan rows{spec, {"dataset", "variant", "run", "measure"}};
  for (const auto& cs : studies) {
    // A variant whose λ equals an earlier variant's measures the same fit
    // under the same (paired) seeds, so it reuses that measure — unless
    // the pipeline adds numerical noise, which no seed controls.
    std::array<hpo::ParamPoint, kVariants.size()> params;
    std::array<std::size_t, kVariants.size()> measured_as{};
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      params[v] = cs.pipeline->default_params();
      if (params[v].count("learning_rate") != 0) {
        params[v]["learning_rate"] *= kVariants[v].second;
      }
      measured_as[v] = v;
      if (cs.pipeline->reads(rngx::VariationSource::kNumerical, params[v])) {
        continue;
      }
      for (std::size_t w = 0; w < v; ++w) {
        if (params[w] == params[v]) {
          measured_as[v] = w;
          break;
        }
      }
    }
    rows.replicates<Runs>(
        spec.repetitions, kVariants.size(),
        rngx::derive_seed(spec.seed, cs.id), "multi_dataset_run",
        [&cs, params, measured_as](std::size_t, rngx::Rng& rng) {
          const auto seeds = rngx::VariationSeeds::random(rng);  // paired
          Runs out{};
          for (std::size_t v = 0; v < kVariants.size(); ++v) {
            out[v] = measured_as[v] < v
                         ? out[measured_as[v]]
                         : core::measure_with_params(*cs.pipeline, *cs.pool,
                                                     *cs.splitter, params[v],
                                                     seeds);
          }
          return out;
        },
        [dataset = cs.id](std::size_t run, const Runs& runs, std::size_t v) {
          return Row{Cell{dataset}, Cell{std::string{kVariants[v].first}},
                     Cell{run}, Cell{runs[v]}};
        });
  }
  return rows.run();
}

std::vector<ResultTable> summarize_multi_dataset(const ResultTable& t) {
  const auto datasets = group_rows(t, {"dataset"});
  std::vector<std::string> columns{"dataset"};
  for (const auto& [name, mult] : kVariants) columns.emplace_back(name);
  ResultTable scores =
      summary_block("mean score per (dataset, variant)", std::move(columns));
  math::Matrix mean_scores{datasets.size(), kVariants.size()};
  // Dror et al.: tuned vs tenth-lr, per dataset.
  std::vector<double> pvals;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    std::array<std::vector<double>, kVariants.size()> series;
    for (const RowGroup& variant : datasets[d].by({"variant"})) {
      series[variant_index(variant.cell("variant").as_string())] =
          variant.values("measure");
    }
    Row row{Cell{datasets[d].cell("dataset").as_string()}};
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      mean_scores(d, v) = stats::mean(series[v]);
      row.push_back(Cell{mean_scores(d, v)});
    }
    scores.add_row(row);
    pvals.push_back(
        stats::wilcoxon_signed_rank(series[0], series[2]).p_value);
  }
  std::vector<ResultTable> blocks;
  blocks.push_back(std::move(scores));

  const std::string demsar =
      "Demsar: Friedman test + Nemenyi critical difference";
  if (datasets.size() < 2) {
    // Both rank across datasets: one dataset has nothing to rank against.
    ResultTable skipped = summary_block(demsar, {"skipped", "datasets"});
    skipped.add_row(
        {Cell{"both need at least 2 datasets"}, Cell{datasets.size()}});
    blocks.push_back(std::move(skipped));
  } else {
    const auto fr = stats::friedman_test(mean_scores);
    std::string group;
    for (const auto v : stats::nemenyi_top_group(fr, datasets.size())) {
      group += (group.empty() ? "" : " ") + std::string{kVariants[v].first};
    }
    ResultTable friedman = summary_block(
        demsar, {"chi2_F", "p", "Iman-Davenport F", "alpha",
                 "Nemenyi CD (ranks)", "indistinguishable-from-best group"});
    friedman.add_row(
        {Cell{fr.chi_squared}, Cell{fr.p_value}, Cell{fr.iman_davenport_f},
         Cell{0.05},
         Cell{stats::nemenyi_critical_difference(kVariants.size(),
                                                 datasets.size())},
         Cell{group}});
    blocks.push_back(std::move(friedman));
    ResultTable ranks = summary_block("Friedman average ranks",
                                      {"variant", "average rank"});
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      ranks.add_row({Cell{std::string{kVariants[v].first}},
                     Cell{fr.average_ranks[v]}});
    }
    blocks.push_back(std::move(ranks));
  }

  const auto rep = stats::replicability_analysis(pvals, 0.05);
  ResultTable per_dataset = summary_block(
      "Dror et al.: per-dataset replicability (tuned vs tenth-lr)",
      {"dataset", "p", "verdict"});
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    per_dataset.add_row({Cell{datasets[d].cell("dataset").as_string()},
                         Cell{pvals[d]},
                         rep.significant[d] ? Cell{"significant"} : Cell{}});
  }
  blocks.push_back(std::move(per_dataset));
  ResultTable verdict = summary_block(
      "Dror et al. verdict", {"significant", "datasets", "improves on all"});
  verdict.add_row({Cell{rep.significant_count}, Cell{rep.dataset_count},
                   Cell{rep.improves_on_all ? "yes" : "no"}});
  blocks.push_back(std::move(verdict));
  return blocks;
}

// --------------------------------------------------------------- table8

namespace {

struct ModelScore {
  double auc = 0.0;
  double pcc = 0.0;
};

ml::TrainConfig mhc_train_config(std::size_t hidden) {
  ml::TrainConfig cfg;
  cfg.model.hidden = {hidden};
  cfg.optimizer = ml::OptimizerKind::kAdam;
  cfg.loss = ml::LossKind::kMse;
  cfg.opt.learning_rate = 0.01;
  cfg.epochs = 15;
  cfg.batch_size = 64;
  return cfg;
}

ModelScore evaluate_single(const ml::Dataset& train, const ml::Dataset& test,
                           std::size_t hidden,
                           const rngx::VariationSeeds& seeds) {
  const auto m = ml::train_mlp(train, mhc_train_config(hidden), seeds);
  return {ml::evaluate_model(m, test, ml::Metric::kAuc, 0.5),
          ml::evaluate_model(m, test, ml::Metric::kPearson)};
}

/// One MHCflurry-style ensemble member's test-set predictions.
std::vector<double> member_predictions(const ml::Dataset& train,
                                       const ml::Dataset& test,
                                       std::size_t hidden,
                                       const rngx::VariationSeeds& seeds) {
  const auto m = ml::train_mlp(train, mhc_train_config(hidden), seeds);
  const auto pred = m.forward(test.x);
  std::vector<double> out(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) out[i] = pred(i, 0);
  return out;
}

/// MHCflurry-style: average the predictions of several independently
/// initialized shallow MLPs, summed in member order.
ModelScore ensemble_score(std::span<const std::vector<double>> members,
                          const ml::Dataset& test) {
  std::vector<double> avg(test.size(), 0.0);
  for (const auto& pred : members) {
    for (std::size_t i = 0; i < test.size(); ++i) avg[i] += pred[i];
  }
  for (double& v : avg) v /= static_cast<double>(members.size());
  return {ml::roc_auc(avg, ml::binarize(test.y, 0.5)),
          stats::pearson(avg, test.y)};
}

constexpr std::string_view kTable8Models[] = {
    "MLP-MHC (single, h=150)", "NetMHCpan4-analogue (single, h=60)",
    "MHCflurry-analogue (8-ensemble, h=60)"};

constexpr std::size_t kEnsembleMembers = 8;
/// A rep's fits: h=150, h=60, then the ensemble's members.
constexpr std::size_t kFitsPerRep = 2 + kEnsembleMembers;

/// What a rep's fits share: its seeds, its split and its members' seeds.
struct Table8Rep {
  rngx::VariationSeeds seeds;
  ml::Dataset train;
  ml::Dataset test;
  std::array<rngx::VariationSeeds, kEnsembleMembers> members;
};

}  // namespace

ResultTable run_table8(const StudySpec& spec) {
  RowPlan rows{spec, {"model", "rep", "auc", "pcc"}};
  const auto cs = casestudies::make_case_study(spec.case_study, spec.scale);
  const auto slice = rows.slice(spec.repetitions);
  const exec::ExecContext ctx = exec_of(spec);
  // Each rep's seeds, split and member seeds, drawn from the rep's stream
  // in the order one whole-rep replicate draws them. This is cheap next to
  // the fits, so it runs inline.
  const auto reps = exec::parallel_replicate_range<Table8Rep>(
      ctx.inline_view(), slice, rngx::derive_seed(spec.seed, "table8"),
      "table8_rep", [&](std::size_t, rngx::Rng& rng) {
        Table8Rep rep;
        rep.seeds = rngx::VariationSeeds::random(rng);
        auto split_rng = rep.seeds.rng_for(rngx::VariationSource::kDataSplit);
        const auto split = cs.splitter->split(*cs.pool, split_rng);
        std::tie(rep.train, rep.test) = core::materialize(*cs.pool, split);
        auto ens_rng = rng.split("ensemble");
        for (auto& member : rep.members) {
          member.weight_init = ens_rng.next_u64();
          member.data_order = ens_rng.next_u64();
        }
        return rep;
      });
  // Every fit of every rep fans out in one region, in rep order.
  std::vector<ModelScore> singles(reps.size() * 2);
  std::vector<std::vector<double>> preds(reps.size() * kEnsembleMembers);
  exec::parallel_for(ctx, 0, reps.size() * kFitsPerRep, [&](std::size_t f) {
    const std::size_t j = f / kFitsPerRep;
    const std::size_t fit = f % kFitsPerRep;
    const Table8Rep& rep = reps[j];
    if (fit < 2) {
      singles[j * 2 + fit] = evaluate_single(rep.train, rep.test,
                                             fit == 0 ? 150 : 60, rep.seeds);
    } else {
      const std::size_t e = fit - 2;
      preds[j * kEnsembleMembers + e] =
          member_predictions(rep.train, rep.test, 60, rep.members[e]);
    }
  });
  std::vector<std::array<ModelScore, std::size(kTable8Models)>> scores;
  for (std::size_t j = 0; j < reps.size(); ++j) {
    scores.push_back(
        {singles[j * 2], singles[j * 2 + 1],
         ensemble_score(
             {preds.data() + j * kEnsembleMembers, kEnsembleMembers},
             reps[j].test)});
  }
  rows.group(spec.repetitions, std::size(kTable8Models),
             [scores = std::move(scores), begin = slice.begin](
                 std::size_t rep, std::size_t m) {
               const ModelScore& score = scores.at(rep - begin)[m];
               return Row{Cell{std::string{kTable8Models[m]}}, Cell{rep},
                          Cell{score.auc}, Cell{score.pcc}};
             });
  return rows.run();
}

std::vector<ResultTable> summarize_table8(const ResultTable& t) {
  ResultTable models = summary_block(
      "model design", {"model", "AUC mean", "AUC std", "PCC mean", "PCC std"});
  for (const RowGroup& model : group_rows(t, {"model"})) {
    const auto auc = model.values("auc");
    const auto pcc = model.values("pcc");
    models.add_row({Cell{model.cell("model").as_string()},
                    Cell{stats::mean(auc)}, Cell{stats::stddev(auc)},
                    Cell{stats::mean(pcc)}, Cell{stats::stddev(pcc)}});
  }
  ResultTable paper = summary_block("paper (Table 8, NetMHC-CVsplits)",
                                    {"model", "AUC", "PCC", "note"});
  paper.add_row({Cell{"NetMHCpan4"}, Cell{0.854}, Cell{0.620}, Cell{}});
  paper.add_row(
      {Cell{"MHCflurry"}, Cell{0.964}, Cell{0.671}, Cell{"leakage-inflated"}});
  paper.add_row({Cell{"MLP-MHC"}, Cell{0.861}, Cell{0.660}, Cell{}});
  return {std::move(models), std::move(paper)};
}

// --------------------------------------------------- ablation_splitters

namespace {

constexpr std::size_t kSplitsPerProcedure = 5;

ml::GaussianMixtureConfig splitters_generator(double scale) {
  ml::GaussianMixtureConfig gen;
  gen.num_classes = 4;
  gen.dim = 12;
  gen.n = static_cast<std::size_t>(1200 * scale) + 300;
  gen.class_sep = 2.2;
  gen.label_noise = 0.05;
  return gen;
}

ml::TrainConfig splitters_train_config() {
  ml::TrainConfig cfg;
  cfg.model.hidden = {12};
  cfg.opt.learning_rate = 0.05;
  cfg.opt.momentum = 0.9;
  cfg.epochs = 8;
  cfg.batch_size = 32;
  return cfg;
}

constexpr std::string_view kStrategies[] = {"out_of_bootstrap",
                                            "cross_validation",
                                            "fixed_holdout"};

/// One procedure (k measures) of one strategy on its own stream.
std::vector<double> run_procedure(std::string_view strategy,
                                  const ml::Dataset& pool,
                                  const ml::TrainConfig& tcfg,
                                  rngx::Rng& rng) {
  std::vector<double> out;
  if (strategy == "cross_validation") {
    auto fold_rng = rng.split("cv");
    for (const auto& fold :
         core::cross_validation_folds(pool, kSplitsPerProcedure, fold_rng)) {
      const auto seeds = rngx::VariationSeeds::random(rng);
      const auto [train, test] = core::materialize(pool, fold);
      out.push_back(ml::evaluate_model(ml::train_mlp(train, tcfg, seeds),
                                       test, ml::Metric::kAccuracy));
    }
    return out;
  }
  const core::OutOfBootstrapSplitter oob;
  const core::FixedHoldoutSplitter fixed{0.8};
  const core::Splitter& splitter =
      strategy == "fixed_holdout" ? static_cast<const core::Splitter&>(fixed)
                                  : oob;
  for (std::size_t i = 0; i < kSplitsPerProcedure; ++i) {
    const auto seeds = rngx::VariationSeeds::random(rng);
    auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
    const auto split = splitter.split(pool, split_rng);
    const auto [train, test] = core::materialize(pool, split);
    out.push_back(ml::evaluate_model(ml::train_mlp(train, tcfg, seeds), test,
                                     ml::Metric::kAccuracy));
  }
  return out;
}

}  // namespace

ResultTable run_ablation_splitters(const StudySpec& spec) {
  RowPlan rows{spec, {"strategy", "rep", "mean", "within_std"}};
  const auto gen = splitters_generator(spec.scale);
  rngx::Rng pool_rng{rngx::derive_seed(spec.seed, "pool")};
  const auto pool = ml::make_gaussian_mixture(gen, pool_rng);
  const auto tcfg = splitters_train_config();

  // Ground truth: train on the full pool, evaluate on a large fresh draw
  // from the generating distribution D — a one-row group whose one index
  // draws nothing from its stream.
  rows.replicates<double>(
      1, 1, /*master_seed=*/0, "splitters_truth",
      [&](std::size_t, rngx::Rng&) {
        auto fresh_cfg = gen;
        fresh_cfg.n = 20000;
        rngx::Rng fresh_rng{rngx::derive_seed(spec.seed, "fresh")};
        const auto fresh = ml::make_gaussian_mixture(fresh_cfg, fresh_rng);
        const rngx::VariationSeeds base_seeds;
        return ml::evaluate_model(ml::train_mlp(pool, tcfg, base_seeds), fresh,
                                  ml::Metric::kAccuracy);
      },
      [](std::size_t, double truth, std::size_t) {
        return Row{Cell{"truth"}, Cell{std::size_t{0}}, Cell{truth},
                   Cell{0.0}};
      });

  struct ProcedureStats {
    double mean = 0.0;
    double within_std = 0.0;
  };
  for (const std::string_view strategy : kStrategies) {
    rows.replicates<ProcedureStats>(
        spec.repetitions, 1,
        rngx::derive_seed(spec.seed, std::string{strategy}),
        "splitters_procedure",
        [strategy, &pool, &tcfg](std::size_t, rngx::Rng& rng) {
          const auto m = run_procedure(strategy, pool, tcfg, rng);
          return ProcedureStats{stats::mean(m), stats::stddev(m)};
        },
        [strategy](std::size_t rep, const ProcedureStats& p, std::size_t) {
          return Row{Cell{std::string{strategy}}, Cell{rep}, Cell{p.mean},
                     Cell{p.within_std}};
        });
  }
  return rows.run();
}

std::vector<ResultTable> summarize_ablation_splitters(const ResultTable& t) {
  const auto strategies = group_rows(t, {"strategy"});
  double truth = 0.0;
  for (const RowGroup& strategy : strategies) {
    if (strategy.cell("strategy").as_string() == "truth") {
      truth = strategy.cell("mean").as_double();
    }
  }
  ResultTable ground = summary_block("ground truth (fresh draws from D)",
                                     {"accuracy"});
  ground.add_row({Cell{truth}});
  // The fixed held-out set has the smallest within-procedure spread, but
  // its mean carries the bias of one arbitrary split; CV's folds overlap in
  // train data, correlating its measures.
  ResultTable procedures = summary_block(
      "procedures, repeated",
      {"strategy", "measures per procedure", "mean", "|mean-truth|",
       "std(mean)", "within-std"});
  for (const RowGroup& strategy : strategies) {
    const std::string& name = strategy.cell("strategy").as_string();
    if (name == "truth") continue;
    const auto means = strategy.values("mean");
    const double mean = stats::mean(means);
    procedures.add_row({Cell{name}, Cell{kSplitsPerProcedure}, Cell{mean},
                        Cell{std::abs(mean - truth)},
                        Cell{stats::stddev(means)},
                        Cell{stats::mean(strategy.values("within_std"))}});
  }
  return {std::move(ground), std::move(procedures)};
}

}  // namespace varbench::study::figures
