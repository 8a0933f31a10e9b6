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
//
// The walk labels points rather than collecting clusters: ComponentLabels
// runs it once per point set and records each point's component, each
// component's size, and the components in report order. build_profile
// (attack/profile.hpp) sums the labels into centroids and
// connectivity_clusters gathers them into index vectors; neither sorts a
// cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/grid_index.hpp"
#include "geo/point.hpp"

namespace privlocad::attack {

/// One cluster: indices into the input point vector.
using Cluster = std::vector<std::size_t>;

/// The connected components (dist < threshold, strict) of one point set,
/// as per-point labels, plus the walk's reusable buffers. Reuse rules, as
/// for DeobfuscationWorkspace: one owner at a time (no internal
/// synchronization); each label() call re-seeds all state, so results do
/// not depend on what ran before; the buffers keep the capacity of the
/// largest input seen, so a reused instance allocates nothing once warm.
class ComponentLabels {
 public:
  /// Labels the components of `points` under dist < threshold_m (> 0).
  /// Components are numbered in walk order: seeds ascend, so component c
  /// is the one whose smallest index is the c-th smallest among the
  /// components' smallest indices.
  void label(const std::vector<geo::Point>& points, double threshold_m);

  std::size_t count() const { return size_.size(); }
  /// Component of point `index`.
  std::uint32_t of(std::size_t index) const { return label_[index]; }
  /// Member count of component `c`.
  std::uint32_t size(std::uint32_t c) const { return size_[c]; }
  /// Components by size descending, ties by smallest index ascending:
  /// the order connectivity_clusters and build_profile report.
  const std::vector<std::uint32_t>& ranked() const { return ranked_; }

 private:
  geo::GridIndex index_;
  Cluster walk_;                        ///< the component being walked
  std::vector<std::uint32_t> label_;    ///< point -> component
  std::vector<std::uint32_t> size_;     ///< component -> member count
  std::vector<std::uint32_t> ranked_;   ///< see ranked()
};

/// Computes connected components under dist(p_i, p_j) < threshold_m.
/// Clusters are returned sorted by size, largest first; ties broken by the
/// smallest contained index so results are deterministic. Each cluster's
/// indices are ascending.
std::vector<Cluster> connectivity_clusters(const std::vector<geo::Point>& points,
                                           double threshold_m);

/// The component walk ComponentLabels and Algorithm 1's first stage run:
/// replaces `component` with the connected component (dist < the index's
/// cell size, strict) of point `seed` among the untaken points of
/// `index`, and takes every member out of `index`. `seed` must be
/// untaken. Members come in walk order, not sorted.
void take_component(geo::GridIndex& index, std::size_t seed,
                    Cluster& component);

}  // namespace privlocad::attack
