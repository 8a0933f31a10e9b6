// Connectivity-based clustering (paper Section III-B1).
//
// Two check-ins are "connected" when their Euclidean distance is below a
// threshold theta (50 m in the paper's profiling, and the attack's first
// stage uses the same notion). Clusters are the connected components of
// that graph.
//
// The component walk runs on a GridIndex with cell size theta and takes
// each point out of the grid when it reaches it (GridIndex::take). A
// query therefore scans only the points of its 3x3 cell neighborhood that
// no walk has reached yet. Every point is taken once and starts one
// query, and a query scans its hits plus the live points it rejects
// (farther than theta but in a neighboring cell). A dense component -- a
// home location's m check-ins in a few cells -- costs O(m) distance
// evaluations, where a walk that leaves reached points in the grid costs
// O(m^2). Sparse clouds whose neighborhoods keep many rejected points
// live still rescan them, so the worst case stays quadratic.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.hpp"

namespace privlocad::geo {
class GridIndex;
}  // namespace privlocad::geo

namespace privlocad::attack {

/// One cluster: indices into the input point vector.
using Cluster = std::vector<std::size_t>;

/// Computes connected components under dist(p_i, p_j) < threshold_m.
/// Clusters are returned sorted by size, largest first; ties broken by the
/// smallest contained index so results are deterministic. Each cluster's
/// indices are ascending.
std::vector<Cluster> connectivity_clusters(const std::vector<geo::Point>& points,
                                           double threshold_m);

/// The component walk both connectivity_clusters and Algorithm 1's first
/// stage run: replaces `component` with the connected component
/// (dist < threshold_m, strict) of point `seed` among the untaken points
/// of `index`, and takes every member out of `index`. `seed` must be
/// untaken. Members come in walk order, not sorted.
void take_component(geo::GridIndex& index, std::size_t seed,
                    double threshold_m, Cluster& component);

/// Centroid of a cluster's points. The cluster must be non-empty.
geo::Point cluster_centroid(const std::vector<geo::Point>& points,
                            const Cluster& cluster);

}  // namespace privlocad::attack
