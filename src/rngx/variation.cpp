#include "src/rngx/variation.h"

#include <stdexcept>

namespace varbench::rngx {

std::string_view to_string(VariationSource source) {
  switch (source) {
    case VariationSource::kDataSplit:
      return "data_split";
    case VariationSource::kDataOrder:
      return "data_order";
    case VariationSource::kDataAugment:
      return "data_augment";
    case VariationSource::kWeightInit:
      return "weight_init";
    case VariationSource::kDropout:
      return "dropout";
    case VariationSource::kHpo:
      return "hpo";
    case VariationSource::kNumerical:
      return "numerical_noise";
  }
  return "unknown";
}

std::uint64_t VariationSeeds::seed_for(VariationSource source) const {
  switch (source) {
    case VariationSource::kDataSplit:
      return data_split;
    case VariationSource::kDataOrder:
      return data_order;
    case VariationSource::kDataAugment:
      return data_augment;
    case VariationSource::kWeightInit:
      return weight_init;
    case VariationSource::kDropout:
      return dropout;
    case VariationSource::kHpo:
      return hpo;
    case VariationSource::kNumerical:
      // Numerical noise has no seed: it is what remains when all seeds are
      // fixed. Callers probing it re-run with identical seeds; under a
      // pipeline that reads no numerical noise (LearningPipeline::reads)
      // every re-run gives the same bits, and add_variance_study computes
      // that probe once.
      return 0;
  }
  throw std::invalid_argument("seed_for: unknown source");
}

void VariationSeeds::set_seed(VariationSource source, std::uint64_t seed) {
  switch (source) {
    case VariationSource::kDataSplit:
      data_split = seed;
      return;
    case VariationSource::kDataOrder:
      data_order = seed;
      return;
    case VariationSource::kDataAugment:
      data_augment = seed;
      return;
    case VariationSource::kWeightInit:
      weight_init = seed;
      return;
    case VariationSource::kDropout:
      dropout = seed;
      return;
    case VariationSource::kHpo:
      hpo = seed;
      return;
    case VariationSource::kNumerical:
      return;  // no seed to set; see seed_for()
  }
  throw std::invalid_argument("set_seed: unknown source");
}

Rng VariationSeeds::rng_for(VariationSource source) const {
  // Mix the per-source seed with the source tag so identical numeric seeds on
  // different sources still give independent streams.
  return Rng{derive_seed(seed_for(source), to_string(source))};
}

VariationSeeds VariationSeeds::random(Rng& master) {
  VariationSeeds s;
  s.data_split = master.next_u64();
  s.data_order = master.next_u64();
  s.data_augment = master.next_u64();
  s.weight_init = master.next_u64();
  s.dropout = master.next_u64();
  s.hpo = master.next_u64();
  return s;
}

VariationSeeds VariationSeeds::with_randomized(VariationSource source,
                                               Rng& master) const {
  VariationSeeds out = *this;
  if (source != VariationSource::kNumerical) {
    out.set_seed(source, master.next_u64());
  }
  return out;
}

}  // namespace varbench::rngx
