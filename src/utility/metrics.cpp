#include "utility/metrics.hpp"

#include <cmath>
#include <numbers>
#include <numeric>

#include "geo/circle.hpp"
#include "rng/samplers.hpp"
#include "util/validation.hpp"

namespace privlocad::utility {

double utilization_rate_single(geo::Point true_location,
                               geo::Point obfuscated_location,
                               double targeting_radius_m) {
  const geo::Circle aoi(true_location, targeting_radius_m);
  const geo::Circle aor(obfuscated_location, targeting_radius_m);
  return geo::overlap_fraction(aoi, aor);
}

double utilization_rate(rng::Engine& engine, geo::Point true_location,
                        const std::vector<geo::Point>& candidates,
                        double targeting_radius_m, std::size_t samples) {
  util::require(!candidates.empty(), "utilization rate needs candidates");
  util::require_positive(targeting_radius_m, "targeting radius");
  util::require(samples > 0, "utilization rate needs samples");

  // n = 1 has the exact closed form; skip the estimator noise.
  if (candidates.size() == 1) {
    return utilization_rate_single(true_location, candidates.front(),
                                   targeting_radius_m);
  }

  const double r2 = targeting_radius_m * targeting_radius_m;
  std::size_t covered = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const geo::Point probe =
        true_location + rng::uniform_in_disk(engine, targeting_radius_m);
    for (const geo::Point& candidate : candidates) {
      if (geo::distance_squared(probe, candidate) <= r2) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(samples);
}

double efficacy_single(geo::Point true_location, geo::Point selected_candidate,
                       double targeting_radius_m) {
  // Equal radii: |AOI ∩ AOR| / |AOR| equals the lens over either circle.
  return utilization_rate_single(true_location, selected_candidate,
                                 targeting_radius_m);
}

double efficacy_weighted(geo::Point true_location,
                         const std::vector<geo::Point>& candidates,
                         const std::vector<double>& selection_probabilities,
                         double targeting_radius_m) {
  util::require(!candidates.empty(), "efficacy needs candidates");
  util::require(candidates.size() == selection_probabilities.size(),
                "candidates and probabilities differ in size");
  const double total = std::accumulate(selection_probabilities.begin(),
                                       selection_probabilities.end(), 0.0);
  util::require(std::abs(total - 1.0) < 1e-6,
                "selection probabilities must sum to 1");

  double efficacy = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    efficacy += selection_probabilities[i] *
                efficacy_single(true_location, candidates[i],
                                targeting_radius_m);
  }
  return efficacy;
}

}  // namespace privlocad::utility
