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
// Two construction paths share the LP assembly (sparse CSR constraints)
// and the solver (the revised simplex, opt/revised_simplex.hpp):
//  - The exact constructor: 8-neighbor edges (octile dilation), one cold
//    solve of the whole grid's LP. The reference -- O(k^2) variables and
//    a dense m x m basis inverse keep it to small grids (<= ~4x4 in
//    practice).
//  - build_approximate(): per-window greedy delta-spanners with a
//    *certified* dilation (lppm/spanner.hpp) and -- past one window -- an
//    overlapping sub-grid decomposition whose windows are stitched into
//    the global channel. Windows of the same shape share one resident
//    solver: identical constraints mean later windows warm-start from
//    the previous optimal basis (prior changes only the objective), and
//    windows with identical local priors reuse the channel outright.
//    This is what puts the optimal baseline on 1000+ cell grids in
//    seconds; the cost is that geo-IND is certified *within* a window
//    while across seams the guarantee is only the measured/smoothed
//    bound recorded in the build report (see docs/API.md).
//
// This mechanism is one-time (per-release) like the planar Laplace; the
// ablation bench compares their quality loss at equal epsilon.
#pragma once

#include "lppm/mechanism.hpp"
#include "lppm/spanner.hpp"
#include "opt/revised_simplex.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse.hpp"

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

/// Configuration of the scalable approximate construction.
struct ApproximateOptimalConfig {
  std::size_t per_side = 32;
  double cell_spacing_m = 250.0;
  double epsilon = std::log(4.0) / 200.0;
  std::vector<double> prior;  ///< size k; empty means uniform

  /// Target dilation for the per-window spanners (> 1). The certified
  /// (measured) dilation deflates epsilon, so smaller targets cost more
  /// LP constraints but waste less budget.
  double spanner_dilation = 1.5;

  /// Decomposition window side in cells. Grids with per_side <=
  /// window_side solve as a single seamless window. The revised simplex
  /// carries a dense basis inverse of (window_cells * (1 + spanner
  /// degree))^2 doubles, so windows are deliberately small.
  std::size_t window_side = 4;

  /// Cells of overlap between adjacent windows; each cell's channel row
  /// comes from the window it is most interior to. Must satisfy
  /// 2 * window_overlap < window_side.
  std::size_t window_overlap = 1;

  /// Mass floor mixed into every stitched row ((1 - g) X + g U over all
  /// cells) when the grid decomposes into > 1 window, so cross-seam
  /// density ratios stay finite. 0 disables; must be < 1.
  double boundary_smoothing = 1e-4;

  /// Solver options for the window LPs.
  opt::SimplexOptions simplex{.max_iterations = 200000,
                              .tolerance = 1e-9,
                              .degeneracy_perturbation = 1e-8};
};

/// What build_approximate() measured while constructing the channel.
struct ApproximateBuildReport {
  /// Max certified spanner dilation across windows; epsilon was deflated
  /// by (at most) this factor, and the recorded utility yardstick is
  /// quality_loss <= dilation * exact quality loss (the continuous-plane
  /// scaling argument; pinned empirically by ApproximateOptimalTest).
  double dilation = 1.0;

  /// Prior-weighted expected distance of the stitched channel.
  double quality_loss = 0.0;

  /// Full epsilon certified between cells served by one window. Across
  /// seams see boundary_epsilon.
  double intra_window_epsilon = 0.0;

  /// Measured max over adjacent cell pairs and outputs of
  /// ln(X_ij / X_i'j) / d(i, i') on the final (smoothed) channel --
  /// the effective geo-IND budget across window seams. Equals
  /// intra_window_epsilon (up to solver tolerance) when the build was a
  /// single window; +inf if smoothing is disabled on a decomposed grid.
  double boundary_epsilon = 0.0;

  std::size_t cells = 0;
  std::size_t windows = 0;              ///< windows stitched
  std::size_t window_solves_cold = 0;   ///< full two-phase solves
  std::size_t window_solves_warm = 0;   ///< warm restarts (new prior)
  std::size_t window_reuse_hits = 0;    ///< identical prior, no solve
  std::size_t lp_variables = 0;         ///< summed over solved windows
  std::size_t lp_constraints = 0;       ///< summed over solved windows
  opt::SolveStats solve_stats;          ///< summed over solved windows

  double construct_seconds = 0.0;  ///< total build wall time
  double solve_seconds = 0.0;      ///< part spent inside the simplex
};

class OptimalGeoIndMechanism final : public Mechanism {
 public:
  /// Builds and solves the LP; throws std::runtime_error if the solver
  /// fails (the problem is always feasible -- the identity-free uniform
  /// channel satisfies every constraint -- so failure means a bug).
  explicit OptimalGeoIndMechanism(OptimalMechanismConfig config);

  /// Scalable construction: certified per-window spanners + sparse
  /// revised simplex + overlapping-window decomposition (header comment).
  /// Fills `report` (optional) with the measured bounds and costs.
  static OptimalGeoIndMechanism build_approximate(
      const ApproximateOptimalConfig& config,
      ApproximateBuildReport* report = nullptr);

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

  /// True for channels produced by build_approximate().
  bool approximate() const { return approximate_; }

 private:
  /// Read access to the solved channel for the test suite's oracles
  /// (tests/oracles.cpp), which check it against the geo-IND constraints.
  friend struct ChannelAccess;

  OptimalGeoIndMechanism() = default;  // build_approximate assembles

  std::size_t nearest_cell(geo::Point p) const;

  OptimalMechanismConfig config_;
  std::vector<geo::Point> centers_;
  std::vector<std::vector<double>> channel_;  // k rows of k probabilities
  double quality_loss_ = 0.0;
  bool approximate_ = false;
  double build_dilation_ = 1.0;  // certified spanner dilation (approx)
};

/// Shared LP assembly for the geo-IND channel problem: k row-stochastic
/// equalities plus one `X_ij <= e^{edge_epsilon d(i,i')} X_i'j` row per
/// directed edge and output, variable X_ij at index i * k + j. Exposed so
/// the tests can solve the same problem with the dense reference
/// (tests/opt_test.cpp).
opt::SparseLpProblem build_geo_ind_lp_sparse(
    const std::vector<geo::Point>& centers, const std::vector<double>& prior,
    const std::vector<std::pair<std::size_t, std::size_t>>& directed_edges,
    double edge_epsilon);

}  // namespace privlocad::lppm
