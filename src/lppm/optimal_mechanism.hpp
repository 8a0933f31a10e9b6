// Optimal geo-IND mechanism (Bordenabe, Chatzikokolakis, Palamidessi --
// CCS 2014), the related-work comparator the paper positions against.
//
// On a discrete grid of k cells, the mechanism is the k x k stochastic
// channel X minimizing the prior-weighted expected quality loss
//     sum_i pi_i sum_j X_ij d(i, j)
// subject to the geo-IND constraints
//     X_ij <= e^{eps d(i, i')} X_i'j        for all i, i', j.
// Enforcing all O(k^2) pairs explodes the LP, so (following the
// spanner idea of Chatzikokolakis et al.) constraints are generated only
// for graph edges with the budget deflated by the graph's dilation:
// chaining edge constraints along a path then implies every pairwise
// constraint at the full epsilon.
//
// The constructor emits 8-neighbor edges (octile dilation) and solves
// the whole grid's LP in one cold dense tableau solve (opt/simplex.hpp).
// The tableau holds every one of the O(k^3) rows over all O(k^2)
// variables (~18 MB at 4x4), which keeps it to small grids (<= ~4x4 in
// practice).
//
// This mechanism is one-time (per-release) like the planar Laplace; the
// ablation bench compares their quality loss at equal epsilon.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lppm/mechanism.hpp"
#include "opt/simplex.hpp"

namespace privlocad::lppm {

struct OptimalMechanismConfig {
  /// Grid is per_side x per_side cells; k = per_side^2.
  std::size_t per_side = 3;

  /// Distance between adjacent cell centers, meters.
  double cell_spacing_m = 250.0;

  /// geo-IND epsilon in 1/meters (e.g. l / r).
  double epsilon = std::log(4.0) / 200.0;

  /// Prior over cells (size k); empty means uniform.
  std::vector<double> prior;
};

class OptimalGeoIndMechanism final : public Mechanism {
 public:
  /// Builds and solves the LP; throws std::runtime_error if the solver
  /// fails (the problem is always feasible -- the identity-free uniform
  /// channel satisfies every constraint -- so failure means a bug).
  explicit OptimalGeoIndMechanism(OptimalMechanismConfig config);

  /// Snaps the real location to the nearest grid cell and samples an
  /// output cell from that row of the optimal channel.
  std::vector<geo::Point> obfuscate(rng::Engine& engine,
                                    geo::Point real_location) const override;

  std::size_t output_count() const override { return 1; }
  std::string name() const override;

  /// Radius covering 1 - alpha of the output mass from a central cell.
  double tail_radius(double alpha) const override;

  /// The LP objective: prior-weighted expected distance truth -> output.
  double expected_quality_loss() const { return quality_loss_; }

  std::size_t cell_count() const { return centers_.size(); }

 private:
  /// Read access to the solved channel for the test suite's oracles
  /// (tests/oracles.cpp), which check it against the geo-IND constraints.
  friend struct ChannelAccess;

  std::size_t nearest_cell(geo::Point p) const;

  OptimalMechanismConfig config_;
  std::vector<geo::Point> centers_;
  std::vector<std::vector<double>> channel_;  // k rows of k probabilities
  double quality_loss_ = 0.0;
};

/// LP assembly for the geo-IND channel problem: k row-stochastic
/// equalities plus one `X_ij <= e^{edge_epsilon d(i,i')} X_i'j` row per
/// directed edge and output (edge-major), variable X_ij at index
/// i * k + j. The constructor solves it over its 8-neighbour edges.
opt::LpProblem build_geo_ind_lp(
    const std::vector<geo::Point>& centers, const std::vector<double>& prior,
    const std::vector<std::pair<std::size_t, std::size_t>>& directed_edges,
    double edge_epsilon);

}  // namespace privlocad::lppm
