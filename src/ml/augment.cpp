#include "src/ml/augment.h"

#include <stdexcept>

namespace varbench::ml {

void augment_batch(math::Matrix& batch, const AugmentConfig& config,
                   rngx::Rng& rng) {
  if (config.jitter_std < 0.0 || config.mask_prob < 0.0 ||
      config.mask_prob >= 1.0) {
    throw std::invalid_argument("augment_batch: bad config");
  }
  if (config.jitter_std > 0.0) {
    for (double& v : batch.data()) v += rng.normal(0.0, config.jitter_std);
  }
  if (config.mask_prob > 0.0) {
    for (double& v : batch.data()) {
      v = rng.bernoulli(config.mask_prob) ? 0.0 : v;
    }
  }
}

}  // namespace varbench::ml
