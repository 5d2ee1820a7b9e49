// Stochastic data augmentation — one of the paper's ξO variance sources.
// Feature-space analogues of the paper's random crop / horizontal flip:
// Gaussian jitter and random feature masking.
#pragma once

#include "src/math/matrix.h"
#include "src/rngx/rng.h"

namespace varbench::ml {

struct AugmentConfig {
  double jitter_std = 0.0;  // additive N(0, σ²) noise per feature
  double mask_prob = 0.0;   // probability of zeroing each feature
};

/// Augment `batch` in place with randomness drawn from `rng` (the ξO
/// data-augmentation stream): one jitter draw per element, then one mask
/// draw per element, each pass row-major.
void augment_batch(math::Matrix& batch, const AugmentConfig& config,
                   rngx::Rng& rng);

/// True when this configuration actually perturbs data.
[[nodiscard]] inline bool is_active(const AugmentConfig& config) {
  return config.jitter_std > 0.0 || config.mask_prob > 0.0;
}

}  // namespace varbench::ml
