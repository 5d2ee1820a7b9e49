#include "src/ml/trainer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/ml/repro_audit.h"
#include "src/ml/synthetic.h"

// A counting replacement of the global operator new, armed only around the
// code under test: the steady-state training step must allocate nothing.
// Not inlined, so GCC does not pair an inlined free() with a new-expression
// (-Wmismatched-new-delete).
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace varbench::ml {
namespace {

Dataset data(std::uint64_t seed = 1) {
  GaussianMixtureConfig cfg;
  cfg.num_classes = 2;
  cfg.dim = 4;
  cfg.n = 150;
  cfg.class_sep = 2.0;
  rngx::Rng rng{seed};
  return make_gaussian_mixture(cfg, rng);
}

TrainConfig config(double dropout = 0.0, double jitter = 0.0) {
  TrainConfig cfg;
  cfg.model.hidden = {6};
  cfg.model.dropout = dropout;
  cfg.augment.jitter_std = jitter;
  cfg.opt.learning_rate = 0.05;
  cfg.opt.momentum = 0.9;
  cfg.epochs = 6;
  cfg.batch_size = 16;
  return cfg;
}

TEST(Trainer, MatchesOneShotTrainMlp) {
  const auto d = data();
  const auto cfg = config(0.2, 0.1);
  const rngx::VariationSeeds seeds;
  Trainer t{d, cfg, seeds};
  t.run_to_completion();
  const Mlp one_shot = train_mlp(d, cfg, seeds);
  EXPECT_TRUE(models_identical(t.model(), one_shot));
}

TEST(Trainer, EpochCounting) {
  const auto d = data();
  Trainer t{d, config(), rngx::VariationSeeds{}};
  EXPECT_EQ(t.epoch(), 0u);
  EXPECT_FALSE(t.finished());
  t.run_epoch();
  EXPECT_EQ(t.epoch(), 1u);
  t.run_to_completion();
  EXPECT_TRUE(t.finished());
  EXPECT_THROW(t.run_epoch(), std::logic_error);
}

TEST(Trainer, CheckpointResumeIsBitExact) {
  const auto d = data();
  const auto cfg = config(0.3, 0.15);  // exercise dropout + augment streams
  const rngx::VariationSeeds seeds;
  Trainer straight{d, cfg, seeds};
  straight.run_to_completion();
  for (std::size_t stop = 1; stop < cfg.epochs; ++stop) {
    Trainer part{d, cfg, seeds};
    for (std::size_t e = 0; e < stop; ++e) part.run_epoch();
    const auto ckpt = part.checkpoint();
    Trainer resumed{d, cfg, seeds};
    resumed.restore(ckpt);
    resumed.run_to_completion();
    EXPECT_TRUE(models_identical(straight.model(), resumed.model()))
        << "stop at epoch " << stop;
  }
}

TEST(Trainer, AdamCheckpointResume) {
  const auto d = data();
  auto cfg = config();
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.opt.learning_rate = 0.01;
  const rngx::VariationSeeds seeds;
  Trainer straight{d, cfg, seeds};
  straight.run_to_completion();
  Trainer part{d, cfg, seeds};
  part.run_epoch();
  part.run_epoch();
  const auto ckpt = part.checkpoint();
  Trainer resumed{d, cfg, seeds};
  resumed.restore(ckpt);
  resumed.run_to_completion();
  EXPECT_TRUE(models_identical(straight.model(), resumed.model()));
}

TEST(Trainer, RestoreRejectsLayerMismatch) {
  const auto d = data();
  Trainer a{d, config(), rngx::VariationSeeds{}};
  auto ckpt = a.checkpoint();
  ckpt.weights.pop_back();
  Trainer b{d, config(), rngx::VariationSeeds{}};
  EXPECT_THROW(b.restore(ckpt), std::invalid_argument);
}

/// A checkpoint after one epoch that `corrupt` damages must be refused by
/// a fresh Trainer, which must then train exactly as if never asked.
template <typename Corrupt>
void expect_restore_rejects(OptimizerKind optimizer, Corrupt corrupt) {
  const auto d = data();
  auto cfg = config(0.2, 0.1);
  cfg.optimizer = optimizer;
  const rngx::VariationSeeds seeds;
  Trainer source{d, cfg, seeds};
  source.run_epoch();
  TrainerCheckpoint ckpt = source.checkpoint();
  corrupt(ckpt);
  Trainer target{d, cfg, seeds};
  EXPECT_THROW(target.restore(ckpt), std::invalid_argument);
  target.run_to_completion();
  Trainer straight{d, cfg, seeds};
  straight.run_to_completion();
  EXPECT_TRUE(models_identical(target.model(), straight.model()));
}

TEST(Trainer, RestoreRejectsWeightShapeMismatch) {
  // Same element count, transposed shape.
  expect_restore_rejects(OptimizerKind::kSgd, [](TrainerCheckpoint& c) {
    c.weights[0] = math::Matrix{c.weights[0].cols(), c.weights[0].rows()};
  });
}

TEST(Trainer, RestoreRejectsBiasShapeMismatch) {
  expect_restore_rejects(OptimizerKind::kSgd, [](TrainerCheckpoint& c) {
    c.biases[1].push_back(0.0);
  });
}

TEST(Trainer, RestoreRejectsOptimizerBufferCountMismatch) {
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam}) {
    expect_restore_rejects(kind, [](TrainerCheckpoint& c) {
      c.optimizer.buffers.pop_back();
    });
  }
}

TEST(Trainer, RestoreRejectsOptimizerBufferSizeMismatch) {
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam}) {
    expect_restore_rejects(kind, [](TrainerCheckpoint& c) {
      c.optimizer.buffers.front().pop_back();  // a truncated buffer
    });
  }
}

TEST(Trainer, RestoreRejectsOrderThatIsNotAPermutation) {
  expect_restore_rejects(OptimizerKind::kSgd, [](TrainerCheckpoint& c) {
    c.order[0] = c.order.size();  // out of range
  });
  expect_restore_rejects(OptimizerKind::kSgd, [](TrainerCheckpoint& c) {
    c.order[0] = c.order[1];  // a repeated row
  });
}

TEST(Trainer, CheckpointBeforeFirstEpochResumes) {
  // No step has run, so the optimizer saves no buffers.
  const auto d = data();
  const auto cfg = config(0.2, 0.1);
  const rngx::VariationSeeds seeds;
  Trainer fresh{d, cfg, seeds};
  const auto ckpt = fresh.checkpoint();
  EXPECT_TRUE(ckpt.optimizer.buffers.empty());
  Trainer resumed{d, cfg, seeds};
  resumed.restore(ckpt);
  resumed.run_to_completion();
  fresh.run_to_completion();
  EXPECT_TRUE(models_identical(fresh.model(), resumed.model()));
}

TEST(Trainer, SteadyStateStepAllocatesNothing) {
  const auto d = data();  // 150 rows: nine batches of 16, then one of 6
  auto cfg = config(0.3, 0.15);
  cfg.model.hidden = {6, 5};
  cfg.model.freeze_first_layer = true;
  cfg.augment.mask_prob = 0.1;
  for (const auto kind : {OptimizerKind::kSgd, OptimizerKind::kAdam}) {
    cfg.optimizer = kind;
    Trainer t{d, cfg, rngx::VariationSeeds{}};
    t.run_epoch();  // sizes the workspace, optimizer state and GEMM scratch
    g_allocations.store(0);
    g_count_allocations.store(true);
    t.run_epoch();
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocations.load(), 0u)
        << "optimizer kind " << static_cast<int>(kind);
  }
}

TEST(Trainer, EmptyDatasetThrows) {
  const Dataset empty;
  EXPECT_THROW((Trainer{empty, config(), rngx::VariationSeeds{}}),
               std::invalid_argument);
}

TEST(ReproAudit, CleanPipelinePasses) {
  const auto d = data();
  ReproAuditConfig audit;
  audit.num_seeds = 2;
  audit.num_repeats = 2;
  const auto report = audit_reproducibility(d, config(0.2, 0.1), audit);
  EXPECT_TRUE(report.passed()) << (report.failures.empty()
                                       ? ""
                                       : report.failures.front());
  EXPECT_TRUE(report.deterministic);
  EXPECT_TRUE(report.resumable);
  // Active sources detected as sensitive: order, init, dropout, augment.
  EXPECT_EQ(report.sensitive_sources.size(), 4u);
}

TEST(ReproAudit, InactiveSourcesNotSensitive) {
  const auto d = data();
  ReproAuditConfig audit;
  audit.num_seeds = 2;
  audit.num_repeats = 2;
  const auto report = audit_reproducibility(d, config(0.0, 0.0), audit);
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.sensitive_sources.size(), 2u);  // order + init only
}

TEST(ReproAudit, NumericalNoiseFlagsNonDeterminism) {
  const auto d = data();
  auto cfg = config();
  cfg.numerical_noise_std = 0.01;
  ReproAuditConfig audit;
  audit.num_seeds = 2;
  audit.num_repeats = 2;
  const auto report = audit_reproducibility(d, cfg, audit);
  EXPECT_FALSE(report.deterministic);
  EXPECT_FALSE(report.passed());
}

TEST(ModelsIdentical, DetectsDifferences) {
  const auto d = data();
  const rngx::VariationSeeds a;
  rngx::VariationSeeds b;
  b.weight_init = 99;
  const Mlp m1 = train_mlp(d, config(), a);
  const Mlp m2 = train_mlp(d, config(), a);
  const Mlp m3 = train_mlp(d, config(), b);
  EXPECT_TRUE(models_identical(m1, m2));
  EXPECT_FALSE(models_identical(m1, m3));
}

TEST(OptimizerState, SgdSaveLoadRoundTrip) {
  const auto d = data();
  const auto cfg = config();
  const rngx::VariationSeeds seeds;
  Trainer t{d, cfg, seeds};
  t.run_epoch();
  const auto ckpt = t.checkpoint();
  EXPECT_EQ(ckpt.epoch, 1u);
  EXPECT_FALSE(ckpt.optimizer.buffers.empty());
  EXPECT_LT(ckpt.optimizer.lr_scale, 1.0 + 1e-12);
}

}  // namespace
}  // namespace varbench::ml
