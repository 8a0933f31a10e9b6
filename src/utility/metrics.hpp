// LBA utility metrics (paper Definitions 4 and 5).
//
// AOI (area of interest): the circle of targeting radius R around the TRUE
// location -- the ads that are actually relevant to the user.
// AOR (area of request): the same-radius circle around an OBFUSCATED
// location -- where ads are actually requested from.
//
// Utilization rate UR = |AOI ∩ AOR| / |AOI| measures how much of the
// relevant area remains reachable. With n obfuscated candidates the AOR is
// the union of the n request circles, so UR is estimated by Monte-Carlo
// point sampling inside the AOI (the n = 1 case also has the exact
// two-circle lens form, used to validate the estimator).
//
// Advertising efficacy AE = Pr[ad ∈ AOI | ad ∈ AOR] measures the chance a
// delivered ad is actually relevant. For a single selected candidate this
// is the exact lens-over-request-circle ratio; with the posterior output
// selection it is the selection-probability-weighted average.
#pragma once

#include <vector>

#include "geo/point.hpp"
#include "rng/engine.hpp"

namespace privlocad::utility {

/// Exact UR for a single obfuscated location (two-circle lens).
double utilization_rate_single(geo::Point true_location,
                               geo::Point obfuscated_location,
                               double targeting_radius_m);

/// Monte-Carlo UR for a candidate set: fraction of `samples` uniform
/// points in the AOI that fall inside at least one candidate's AOR circle.
double utilization_rate(rng::Engine& engine, geo::Point true_location,
                        const std::vector<geo::Point>& candidates,
                        double targeting_radius_m, std::size_t samples = 512);

/// Exact efficacy of delivering from one selected candidate:
/// |AOI ∩ AOR| / |AOR| (equal radii make this symmetric with UR-single).
double efficacy_single(geo::Point true_location, geo::Point selected_candidate,
                       double targeting_radius_m);

/// Efficacy of a selection strategy: the weighted average of
/// efficacy_single over the candidates with the given selection
/// probabilities. `selection_probabilities` must sum to ~1 and match
/// `candidates` in size.
double efficacy_weighted(geo::Point true_location,
                         const std::vector<geo::Point>& candidates,
                         const std::vector<double>& selection_probabilities,
                         double targeting_radius_m);

}  // namespace privlocad::utility
