// Bayesian posterior remapping (Chatzikokolakis et al., PETS 2017 -- the
// "efficient utility improvement" line the paper's related work cites).
//
// A reported location z = p + noise can be improved for FREE: given a
// public prior over where people actually are (a POI grid, a population
// density map), replace z by the posterior mean E[p | z]. This is pure
// post-processing -- it reads only the released z and public data -- so it
// costs no privacy under any DP-like notion, yet it can cut the expected
// error substantially when the prior is informative. Edge-PrivLocAd's
// nomadic path (one-time planar Laplace) composes naturally with this
// remapper; the ablation bench quantifies the gain.
#pragma once

#include <vector>

#include "geo/bounding_box.hpp"
#include "geo/point.hpp"

namespace privlocad::lppm {

/// One support point of the discrete prior.
struct PriorPoint {
  geo::Point location;
  double weight;  ///< relative mass, need not be normalized
};

class BayesianRemapper {
 public:
  /// `prior` must be non-empty with non-negative weights summing > 0.
  explicit BayesianRemapper(std::vector<PriorPoint> prior);

  /// Posterior-mean remap assuming planar-Laplace noise with parameter
  /// `epsilon` (density proportional to exp(-eps * |z - p|)).
  geo::Point remap_laplace(geo::Point reported, double epsilon) const;

  std::size_t support_size() const { return prior_.size(); }

 private:
  template <typename LogDensity>
  geo::Point remap(LogDensity&& log_density) const;

  std::vector<PriorPoint> prior_;
};

/// Uniform grid prior over a bounding box: `per_side`^2 equally weighted
/// support points at cell centers. The uninformative baseline.
std::vector<PriorPoint> uniform_grid_prior(const geo::BoundingBox& box,
                                           std::size_t per_side);

}  // namespace privlocad::lppm
