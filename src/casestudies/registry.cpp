#include "src/casestudies/registry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/ml/synthetic.h"

namespace varbench::casestudies {

namespace {

using hpo::Dimension;
using hpo::ScaleKind;

std::size_t scaled(std::size_t n, double scale, std::size_t min_n) {
  const auto v = static_cast<std::size_t>(
      std::lround(static_cast<double>(n) * scale));
  return std::max(v, min_n);
}

void check_scale(double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {
    throw std::invalid_argument("make_case_study: scale outside (0, 1]");
  }
}

// Every pool is drawn from a fixed generator seed: like CIFAR10 itself, the
// finite dataset S is frozen; only its *splits* vary between runs.
rngx::Rng pool_rng(const std::string& id) {
  return rngx::Rng{rngx::derive_seed(0xDA7A5E7ULL, id)};
}

CaseStudy make_cifar10(double scale) {
  CaseStudy cs;
  cs.id = "cifar10_vgg11";
  cs.paper_task = "CIFAR10 VGG11";
  cs.paper_test_size = 10000;

  ml::GaussianMixtureConfig data;
  data.num_classes = 10;
  data.dim = 32;
  data.n = scaled(6000, scale, 400);
  // class_sep calibrated so the default pipeline lands near the paper's
  // ~91% CIFAR10-VGG11 accuracy (10 classes on signed axes: pairwise mean
  // distance class_sep·√2).
  data.class_sep = 3.6;
  data.within_std = 1.0;
  data.label_noise = 0.02;
  auto rng = pool_rng(cs.id);
  cs.pool = std::make_shared<const ml::Dataset>(
      ml::make_gaussian_mixture(data, rng));

  // Stratified bootstrap, as in Appendix D.1.
  cs.splitter = std::make_shared<const core::OutOfBootstrapSplitter>(
      scaled(2000, scale, 100), scaled(1000, scale, 50), /*stratified=*/true);

  MlpPipelineSpec spec;
  spec.name = cs.id;
  spec.metric = ml::Metric::kAccuracy;
  spec.base.model.hidden = {24};
  spec.base.model.init = ml::InitScheme::kGlorotUniform;
  spec.base.optimizer = ml::OptimizerKind::kSgd;
  spec.base.loss = ml::LossKind::kSoftmaxCrossEntropy;
  spec.base.epochs = std::max<std::size_t>(3, scaled(15, scale, 3));
  spec.base.batch_size = 32;
  spec.base.augment.jitter_std = 0.15;  // crop/flip analogue
  // Search space shaped after Table 2 (ranges adapted to this substrate).
  spec.space.add({"learning_rate", 0.001, 0.3, ScaleKind::kLog})
      .add({"weight_decay", 1e-6, 1e-2, ScaleKind::kLog})
      .add({"momentum", 0.5, 0.99, ScaleKind::kLinear})
      .add({"lr_gamma", 0.96, 0.999, ScaleKind::kLinear});
  spec.defaults = {{"learning_rate", 0.03},
                   {"weight_decay", 0.002},
                   {"momentum", 0.9},
                   {"lr_gamma", 0.97}};
  cs.pipeline = std::make_shared<const MlpPipeline>(std::move(spec));
  return cs;
}

CaseStudy make_glue(const std::string& id, double scale) {
  const bool is_rte = id == "glue_rte_bert";
  CaseStudy cs;
  cs.id = id;
  cs.paper_task = is_rte ? "Glue-RTE BERT" : "Glue-SST2 BERT";
  cs.paper_test_size = is_rte ? 277 : 872;

  ml::SparseBinaryConfig data;
  data.dim = 64;
  if (is_rte) {
    // RTE: 2.5k examples, weak signal → accuracies around 0.66.
    data.n = scaled(2800, scale, 400);
    data.informative = 6;
    data.signal = 0.65;
    data.density = 0.3;
    data.label_noise = 0.15;
  } else {
    // SST2: larger data, clean dense signal → accuracies around 0.93.
    data.n = scaled(4500, scale, 400);
    data.informative = 12;
    data.signal = 1.5;
    data.density = 0.4;
    data.label_noise = 0.025;
  }
  auto rng = pool_rng(cs.id);
  cs.pool =
      std::make_shared<const ml::Dataset>(ml::make_sparse_binary(data, rng));

  // Plain (non-stratified) out-of-bootstrap, test size = paper's n'
  // (Appendix D.2/D.3) — scaled along with everything else.
  const std::size_t test_n = scaled(cs.paper_test_size, scale, 40);
  const std::size_t train_n =
      is_rte ? scaled(2200, scale, 200) : scaled(3200, scale, 250);
  cs.splitter = std::make_shared<const core::OutOfBootstrapSplitter>(
      train_n, test_n, /*stratified=*/false);

  MlpPipelineSpec spec;
  spec.name = cs.id;
  spec.metric = ml::Metric::kAccuracy;
  // Frozen random encoder + trained head = fine-tuning a pretrained backbone.
  spec.base.model.hidden = {32};
  spec.base.model.freeze_first_layer = true;
  spec.base.model.init = ml::InitScheme::kNormalScaled;
  spec.base.model.init_sigma = 0.2;
  spec.base.model.dropout = 0.1;  // fixed, as in Table 3
  spec.base.optimizer = ml::OptimizerKind::kAdam;
  spec.base.loss = ml::LossKind::kSoftmaxCrossEntropy;
  spec.base.epochs = std::max<std::size_t>(2, scaled(6, scale, 2));
  spec.base.batch_size = 32;
  // Table 3's dimensions: learning rate, weight decay, head-init std.
  spec.space.add({"learning_rate", 1e-3, 1e-1, ScaleKind::kLog})
      .add({"weight_decay", 1e-4, 2e-3, ScaleKind::kLog})
      .add({"init_sigma", 0.01, 0.5, ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.01},
                   {"weight_decay", 2e-4},
                   {"init_sigma", 0.2}};
  cs.pipeline = std::make_shared<const MlpPipeline>(std::move(spec));
  return cs;
}

CaseStudy make_pascalvoc(double scale) {
  CaseStudy cs;
  cs.id = "pascalvoc_fcn";
  cs.paper_task = "PascalVOC ResNet";
  cs.paper_test_size = 729;

  // Imbalanced dense labeling: background class dominates, like pixels in
  // segmentation masks.
  ml::GaussianMixtureConfig data;
  data.num_classes = 8;
  data.dim = 24;
  data.n = scaled(3500, scale, 400);
  data.class_sep = 2.4;  // tuned for mIoU near the paper's ~0.53
  data.within_std = 1.0;
  data.label_noise = 0.02;
  data.class_probs = {0.44, 0.08, 0.08, 0.08, 0.08, 0.08, 0.08, 0.08};
  auto rng = pool_rng(cs.id);
  cs.pool = std::make_shared<const ml::Dataset>(
      ml::make_gaussian_mixture(data, rng));

  cs.splitter = std::make_shared<const core::OutOfBootstrapSplitter>(
      scaled(2200, scale, 150), scaled(729, scale, 50), /*stratified=*/false);

  MlpPipelineSpec spec;
  spec.name = cs.id;
  spec.metric = ml::Metric::kMeanIoU;
  spec.base.model.hidden = {24};
  spec.base.model.init = ml::InitScheme::kHeNormal;
  spec.base.optimizer = ml::OptimizerKind::kSgd;
  spec.base.loss = ml::LossKind::kSoftmaxCrossEntropy;
  spec.base.epochs = std::max<std::size_t>(3, scaled(12, scale, 3));
  spec.base.batch_size = 16;  // Table 5
  // The paper could not make this pipeline bit-reproducible (Appendix A);
  // we inject the equivalent unseeded perturbation.
  spec.base.numerical_noise_std = 0.01;
  // Table 5's dimensions.
  spec.space.add({"learning_rate", 1e-3, 1e-1, ScaleKind::kLog})
      .add({"momentum", 0.5, 0.99, ScaleKind::kLinear})
      .add({"weight_decay", 1e-8, 1e-1, ScaleKind::kLog});
  spec.defaults = {{"learning_rate", 0.02},
                   {"momentum", 0.9},
                   {"weight_decay", 1e-6}};
  cs.pipeline = std::make_shared<const MlpPipeline>(std::move(spec));
  return cs;
}

CaseStudy make_mhc(double scale) {
  CaseStudy cs;
  cs.id = "mhc_mlp";
  cs.paper_task = "MHC MLP";
  cs.paper_test_size = 1000;

  ml::RegressionTeacherConfig data;
  data.dim = 24;
  data.n = scaled(4000, scale, 400);
  data.teacher_hidden = 16;
  data.noise_std = 0.08;
  auto rng = pool_rng(cs.id);
  cs.pool = std::make_shared<const ml::Dataset>(
      ml::make_regression_teacher(data, rng));

  cs.splitter = std::make_shared<const core::OutOfBootstrapSplitter>(
      scaled(2500, scale, 200), scaled(1000, scale, 60), /*stratified=*/false);

  MlpPipelineSpec spec;
  spec.name = cs.id;
  spec.metric = ml::Metric::kAuc;
  spec.auc_threshold = 0.5;  // normalized-affinity binder cutoff
  spec.base.model.hidden = {150};  // Table 7 default
  spec.base.model.init = ml::InitScheme::kGlorotUniform;
  spec.base.optimizer = ml::OptimizerKind::kAdam;
  spec.base.opt.learning_rate = 0.01;  // fixed; not part of the search
  spec.base.loss = ml::LossKind::kMse;
  // Regression needs more passes than the classifiers; keep a higher floor
  // so small-scale test runs still learn the teacher signal.
  spec.base.epochs = std::max<std::size_t>(10, scaled(15, scale, 10));
  spec.base.batch_size = 64;
  // Table 6's dimensions: hidden layer size and L2 weight decay.
  spec.space
      .add({"hidden", 20.0, 400.0, ScaleKind::kLinear, /*integer=*/true})
      .add({"weight_decay", 1e-6, 1.0, ScaleKind::kLog});
  spec.defaults = {{"hidden", 150.0}, {"weight_decay", 0.001}};
  cs.pipeline = std::make_shared<const MlpPipeline>(std::move(spec));
  return cs;
}

}  // namespace

std::vector<std::string> case_study_ids() {
  return {"glue_rte_bert", "glue_sst2_bert", "mhc_mlp", "pascalvoc_fcn",
          "cifar10_vgg11"};
}

CaseStudy make_case_study(const std::string& id, double scale) {
  check_scale(scale);
  if (id == "cifar10_vgg11") return make_cifar10(scale);
  if (id == "glue_sst2_bert" || id == "glue_rte_bert") return make_glue(id, scale);
  if (id == "pascalvoc_fcn") return make_pascalvoc(scale);
  if (id == "mhc_mlp") return make_mhc(scale);
  throw std::invalid_argument("make_case_study: unknown id " + id);
}

}  // namespace varbench::casestudies
