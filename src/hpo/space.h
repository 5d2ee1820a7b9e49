// Hyperparameter search spaces: named dimensions with linear or logarithmic
// scale (paper Appendix D, Tables 2/3/5/6).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/rngx/rng.h"

namespace varbench::hpo {

/// A concrete hyperparameter assignment λ.
using ParamPoint = std::map<std::string, double>;

enum class ScaleKind : int { kLinear, kLog };

struct Dimension {
  std::string name;
  double lo = 0.0;
  double hi = 1.0;
  ScaleKind scale = ScaleKind::kLinear;
  bool integer = false;  // round to nearest integer (e.g. hidden layer size)
};

class SearchSpace {
 public:
  SearchSpace() = default;
  explicit SearchSpace(std::vector<Dimension> dims);

  SearchSpace& add(Dimension dim);

  [[nodiscard]] std::size_t size() const noexcept { return dims_.size(); }
  [[nodiscard]] bool empty() const noexcept { return dims_.empty(); }
  [[nodiscard]] const std::vector<Dimension>& dims() const noexcept {
    return dims_;
  }
  [[nodiscard]] const Dimension& dim(std::size_t i) const {
    return dims_.at(i);
  }

  /// Uniform sample (log-uniform on log dimensions).
  [[nodiscard]] ParamPoint sample(rngx::Rng& rng) const;

  /// Map a point to the unit cube [0,1]^d (log dims mapped in log space) —
  /// the GP surrogate's input representation.
  [[nodiscard]] std::vector<double> to_unit(const ParamPoint& p) const;

  /// Inverse of to_unit (integer dims rounded).
  [[nodiscard]] ParamPoint from_unit(std::span<const double> u) const;

  /// Clamp every coordinate into its dimension's range.
  [[nodiscard]] ParamPoint clamp(ParamPoint p) const;

  /// True when every dimension is present and within range.
  [[nodiscard]] bool contains(const ParamPoint& p) const;

 private:
  std::vector<Dimension> dims_;
};

}  // namespace varbench::hpo
