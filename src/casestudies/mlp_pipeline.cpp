#include "src/casestudies/mlp_pipeline.h"

#include <cmath>
#include <stdexcept>

#include "src/ml/metrics.h"

namespace varbench::casestudies {

MlpPipeline::MlpPipeline(MlpPipelineSpec spec) : spec_{std::move(spec)} {
  if (spec_.name.empty()) {
    throw std::invalid_argument("MlpPipeline: empty name");
  }
}

ml::TrainConfig MlpPipeline::resolve_config(
    const hpo::ParamPoint& lambda) const {
  ml::TrainConfig cfg = spec_.base;
  for (const auto& [key, value] : lambda) {
    if (key == "learning_rate") {
      cfg.opt.learning_rate = value;
    } else if (key == "weight_decay") {
      cfg.opt.weight_decay = value;
    } else if (key == "momentum") {
      cfg.opt.momentum = value;
    } else if (key == "lr_gamma") {
      cfg.opt.lr_gamma = value;
    } else if (key == "hidden") {
      if (!(value >= 1.0)) {
        throw std::invalid_argument("resolve_config: hidden < 1");
      }
      cfg.model.hidden.assign(1, static_cast<std::size_t>(std::lround(value)));
    } else if (key == "init_sigma") {
      cfg.model.init_sigma = value;
    } else if (key == "dropout") {
      cfg.model.dropout = value;
    } else {
      throw std::invalid_argument("resolve_config: unknown hyperparameter " +
                                  key);
    }
  }
  if (cfg.opt.learning_rate <= 0.0) {
    throw std::invalid_argument("resolve_config: learning rate <= 0");
  }
  return cfg;
}

bool MlpPipeline::reads(rngx::VariationSource source,
                        const hpo::ParamPoint& lambda) const {
  const ml::TrainConfig cfg = resolve_config(lambda);
  switch (source) {
    case rngx::VariationSource::kDataAugment:
      return ml::is_active(cfg.augment);
    case rngx::VariationSource::kDropout:
      return cfg.model.dropout > 0.0;
    case rngx::VariationSource::kNumerical:
      return cfg.numerical_noise_std > 0.0;
    case rngx::VariationSource::kHpo:
      return false;
    default:
      return true;
  }
}

double MlpPipeline::train_and_evaluate(const ml::Dataset& train,
                                       const ml::Dataset& test,
                                       const hpo::ParamPoint& lambda,
                                       const rngx::VariationSeeds& seeds) const {
  const ml::TrainConfig cfg = resolve_config(lambda);
  const ml::Mlp model = ml::train_mlp(train, cfg, seeds);
  return ml::evaluate_model(model, test, spec_.metric, spec_.auc_threshold);
}

}  // namespace varbench::casestudies
