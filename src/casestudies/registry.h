// The five case-study analogues (see DESIGN.md §2 for the substitution map):
//   cifar10_vgg11  — 10-class Gaussian mixture + SGD MLP     (accuracy)
//   glue_sst2_bert — sparse binary task, frozen encoder head (accuracy, n'=872)
//   glue_rte_bert  — same family, tiny data                  (accuracy, n'=277)
//   pascalvoc_fcn  — imbalanced dense labeling, mIoU, injected numerical noise
//   mhc_mlp        — teacher-network binding-affinity regression (AUC)
// Each bundles a data pool, a splitter, and a pipeline, reproducing the
// protocols of the paper's Appendix D at CPU scale.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/casestudies/mlp_pipeline.h"
#include "src/core/splitter.h"

namespace varbench::casestudies {

struct CaseStudy {
  std::string id;          // stable identifier, e.g. "cifar10_vgg11"
  std::string paper_task;  // the paper's label, e.g. "CIFAR10 VGG11"
  std::shared_ptr<const ml::Dataset> pool;
  std::shared_ptr<const core::Splitter> splitter;
  std::shared_ptr<const MlpPipeline> pipeline;
  std::size_t paper_test_size = 0;  // n' of the original study (Fig. 2)
};

/// All registered case-study ids, in the paper's presentation order.
[[nodiscard]] std::vector<std::string> case_study_ids();

/// Build one case study. `scale` in (0, 1] shrinks data-pool sizes and
/// training epochs proportionally — tests use small scales, benches ~1.
[[nodiscard]] CaseStudy make_case_study(const std::string& id,
                                        double scale = 1.0);

}  // namespace varbench::casestudies
