#include "src/hpo/space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace varbench::hpo {

namespace {

void check_dim(const Dimension& d) {
  if (d.name.empty()) throw std::invalid_argument("Dimension: empty name");
  if (!(d.lo < d.hi)) throw std::invalid_argument("Dimension: lo >= hi");
  if (d.scale == ScaleKind::kLog && !(d.lo > 0.0)) {
    throw std::invalid_argument("Dimension: log scale requires lo > 0");
  }
}

double round_if_integer(const Dimension& d, double v) {
  return d.integer ? std::round(v) : v;
}

}  // namespace

SearchSpace::SearchSpace(std::vector<Dimension> dims) : dims_{std::move(dims)} {
  for (const auto& d : dims_) check_dim(d);
}

SearchSpace& SearchSpace::add(Dimension dim) {
  check_dim(dim);
  for (const auto& d : dims_) {
    if (d.name == dim.name) {
      throw std::invalid_argument("SearchSpace: duplicate dimension " + dim.name);
    }
  }
  dims_.push_back(std::move(dim));
  return *this;
}

ParamPoint SearchSpace::sample(rngx::Rng& rng) const {
  ParamPoint p;
  for (const auto& d : dims_) {
    const double v = d.scale == ScaleKind::kLog ? rng.log_uniform(d.lo, d.hi)
                                                : rng.uniform(d.lo, d.hi);
    p[d.name] = round_if_integer(d, v);
  }
  return p;
}

std::vector<double> SearchSpace::to_unit(const ParamPoint& p) const {
  std::vector<double> u(dims_.size(), 0.0);
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const auto& d = dims_[i];
    const auto it = p.find(d.name);
    if (it == p.end()) {
      throw std::invalid_argument("to_unit: missing dimension " + d.name);
    }
    double v = it->second;
    if (d.scale == ScaleKind::kLog) {
      u[i] = (std::log(v) - std::log(d.lo)) / (std::log(d.hi) - std::log(d.lo));
    } else {
      u[i] = (v - d.lo) / (d.hi - d.lo);
    }
    u[i] = std::clamp(u[i], 0.0, 1.0);
  }
  return u;
}

ParamPoint SearchSpace::from_unit(std::span<const double> u) const {
  if (u.size() != dims_.size()) {
    throw std::invalid_argument("from_unit: dimension count mismatch");
  }
  ParamPoint p;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const auto& d = dims_[i];
    const double t = std::clamp(u[i], 0.0, 1.0);
    double v = 0.0;
    if (d.scale == ScaleKind::kLog) {
      v = std::exp(std::log(d.lo) + t * (std::log(d.hi) - std::log(d.lo)));
    } else {
      v = d.lo + t * (d.hi - d.lo);
    }
    p[d.name] = round_if_integer(d, v);
  }
  return p;
}

ParamPoint SearchSpace::clamp(ParamPoint p) const {
  for (const auto& d : dims_) {
    const auto it = p.find(d.name);
    if (it == p.end()) continue;
    it->second = round_if_integer(d, std::clamp(it->second, d.lo, d.hi));
  }
  return p;
}

bool SearchSpace::contains(const ParamPoint& p) const {
  for (const auto& d : dims_) {
    const auto it = p.find(d.name);
    if (it == p.end()) return false;
    if (it->second < d.lo || it->second > d.hi) return false;
  }
  return true;
}

}  // namespace varbench::hpo
