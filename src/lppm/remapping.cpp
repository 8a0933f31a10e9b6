#include "lppm/remapping.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::lppm {

BayesianRemapper::BayesianRemapper(std::vector<PriorPoint> prior)
    : prior_(std::move(prior)) {
  util::require(!prior_.empty(), "remapper prior must be non-empty");
  double total = 0.0;
  for (const PriorPoint& p : prior_) {
    util::require(p.weight >= 0.0, "prior weights must be non-negative");
    total += p.weight;
  }
  util::require(total > 0.0, "prior weights must not all be zero");
}

template <typename LogDensity>
geo::Point BayesianRemapper::remap(LogDensity&& log_density) const {
  // Work in log space and shift by the max exponent: priors over a metro
  // area produce exponents of -1e3 and below, which underflow otherwise.
  std::vector<double> log_weight(prior_.size());
  double max_log = -1e300;
  for (std::size_t i = 0; i < prior_.size(); ++i) {
    log_weight[i] = prior_[i].weight > 0.0
                        ? std::log(prior_[i].weight) +
                              log_density(prior_[i].location)
                        : -1e300;
    max_log = std::max(max_log, log_weight[i]);
  }

  geo::Point weighted_sum{};
  double total = 0.0;
  for (std::size_t i = 0; i < prior_.size(); ++i) {
    const double w = std::exp(log_weight[i] - max_log);
    weighted_sum = weighted_sum + prior_[i].location * w;
    total += w;
  }
  return weighted_sum / total;
}

geo::Point BayesianRemapper::remap_laplace(geo::Point reported,
                                           double epsilon) const {
  util::require_positive(epsilon, "remap epsilon");
  return remap([&](geo::Point p) {
    return -epsilon * geo::distance(reported, p);
  });
}

std::vector<PriorPoint> uniform_grid_prior(const geo::BoundingBox& box,
                                           std::size_t per_side) {
  util::require(per_side >= 1, "grid prior needs at least one cell");
  std::vector<PriorPoint> prior;
  prior.reserve(per_side * per_side);
  const double dx = box.width() / static_cast<double>(per_side);
  const double dy = box.height() / static_cast<double>(per_side);
  for (std::size_t i = 0; i < per_side; ++i) {
    for (std::size_t j = 0; j < per_side; ++j) {
      prior.push_back(
          {{box.min_corner().x + (static_cast<double>(i) + 0.5) * dx,
            box.min_corner().y + (static_cast<double>(j) + 0.5) * dy},
           1.0});
    }
  }
  return prior;
}

}  // namespace privlocad::lppm
