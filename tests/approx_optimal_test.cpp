// Tests for the certified delta-spanner and the scalable approximate
// optimal geo-IND mechanism (spanner LP + revised simplex + window
// decomposition).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "lppm/optimal_mechanism.hpp"
#include "lppm/spanner.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad {
namespace {

using oracles::channel_row;
using oracles::max_constraint_violation;

std::vector<geo::Point> square_grid(std::size_t side, double spacing) {
  std::vector<geo::Point> nodes;
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      nodes.push_back({static_cast<double>(c) * spacing,
                       static_cast<double>(r) * spacing});
    }
  }
  return nodes;
}

/// Independent dilation check: Floyd-Warshall over the spanner edges.
double measured_dilation(const std::vector<geo::Point>& nodes,
                         const lppm::Spanner& spanner) {
  const std::size_t n = nodes.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n * n, inf);
  for (std::size_t i = 0; i < n; ++i) dist[i * n + i] = 0.0;
  for (const lppm::SpannerEdge& e : spanner.edges()) {
    dist[e.a * n + e.b] = std::min(dist[e.a * n + e.b], e.length);
    dist[e.b * n + e.a] = std::min(dist[e.b * n + e.a], e.length);
  }
  for (std::size_t m = 0; m < n; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dist[i * n + j] =
            std::min(dist[i * n + j], dist[i * n + m] + dist[m * n + j]);
      }
    }
  }
  double worst = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      worst = std::max(worst,
                       dist[i * n + j] / geo::distance(nodes[i], nodes[j]));
    }
  }
  return worst;
}

// ------------------------------------------------------------------ spanner

TEST(Spanner, CertifiedDilationHoldsOnGrids) {
  for (const std::size_t side : {2u, 4u, 6u}) {
    const auto nodes = square_grid(side, 250.0);
    const lppm::Spanner spanner = lppm::Spanner::build(nodes);
    EXPECT_LE(spanner.dilation(), spanner.target_dilation()) << side;
    // The reported dilation is the true all-pairs maximum.
    EXPECT_NEAR(spanner.dilation(), measured_dilation(nodes, spanner), 1e-12)
        << side;
    // A spanner is much sparser than the complete graph.
    const std::size_t pairs = nodes.size() * (nodes.size() - 1) / 2;
    if (side >= 4) {
      EXPECT_LT(spanner.edges().size(), pairs / 2) << side;
    }
  }
}

TEST(Spanner, TighterTargetAddsEdges) {
  const auto nodes = square_grid(5, 100.0);
  const auto loose = lppm::Spanner::build(nodes, {.target_dilation = 2.0});
  const auto tight = lppm::Spanner::build(nodes, {.target_dilation = 1.1});
  EXPECT_GE(tight.edges().size(), loose.edges().size());
  EXPECT_LE(tight.dilation(), 1.1);
  EXPECT_LE(loose.dilation(), 2.0);
}

TEST(Spanner, CertificationRepairsStarvedGreedyPass) {
  // A candidate radius below the node spacing starves the greedy pass of
  // every pair, so the certification sweep must add the repair edges
  // itself -- and still end below the target.
  const auto nodes = square_grid(3, 100.0);
  const lppm::Spanner spanner = lppm::Spanner::build(
      nodes, {.target_dilation = 1.5, .candidate_radius_factor = 0.5});
  EXPECT_LE(spanner.dilation(), 1.5);
  EXPECT_NEAR(spanner.dilation(), measured_dilation(nodes, spanner), 1e-12);
  EXPECT_GE(spanner.edges().size(), nodes.size() - 1);  // graph is connected
}

TEST(Spanner, RejectsInvalidInputs) {
  const auto nodes = square_grid(2, 100.0);
  EXPECT_THROW(lppm::Spanner::build({{0.0, 0.0}}, {}), util::InvalidArgument);
  EXPECT_THROW(lppm::Spanner::build(nodes, {.target_dilation = 1.0}),
               util::InvalidArgument);
  std::vector<geo::Point> coincident = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0}};
  EXPECT_THROW(lppm::Spanner::build(coincident, {}), util::InvalidArgument);
}

// ------------------------------------------------ approximate mechanism

lppm::ApproximateOptimalConfig approx_config(std::size_t side) {
  lppm::ApproximateOptimalConfig c;
  c.per_side = side;
  c.cell_spacing_m = 250.0;
  c.epsilon = std::log(4.0) / 200.0;
  return c;
}

TEST(ApproximateOptimal, SingleWindowRowsAreDistributions) {
  lppm::ApproximateBuildReport report;
  const auto mech = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(3), &report);
  EXPECT_TRUE(mech.approximate());
  EXPECT_EQ(report.windows, 1u);
  EXPECT_EQ(report.window_solves_cold, 1u);
  EXPECT_EQ(report.cells, 9u);
  for (std::size_t i = 0; i < mech.cell_count(); ++i) {
    double sum = 0.0;
    for (const double p : channel_row(mech, i)) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_NE(mech.name().find("approx-optimal-geo-ind"), std::string::npos);
}

TEST(ApproximateOptimal, SingleWindowSatisfiesAllPairGeoInd) {
  // One window means the spanner chaining argument covers every cell
  // pair at the full epsilon; the slack tolerated here is the documented
  // perturbation leakage plus row-renormalization noise.
  lppm::ApproximateBuildReport report;
  const auto mech = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(3), &report);
  EXPECT_LE(max_constraint_violation(mech), 1e-3);
  EXPECT_NEAR(report.boundary_epsilon, report.intra_window_epsilon,
              0.1 * report.intra_window_epsilon);
}

TEST(ApproximateOptimal, UtilityLossWithinDilationBoundOfExact) {
  // The acceptance yardstick: on grids small enough for the exact solver,
  // the approximate quality loss is at most the certified dilation times
  // the exact optimum (epsilon deflated by delta scales the loss by at
  // most delta, the planar-Laplace scaling argument).
  for (const std::size_t side : {3u, 4u}) {
    lppm::ApproximateBuildReport report;
    const auto approx = lppm::OptimalGeoIndMechanism::build_approximate(
        approx_config(side), &report);
    lppm::OptimalMechanismConfig exact_config;
    exact_config.per_side = side;
    exact_config.cell_spacing_m = 250.0;
    exact_config.epsilon = std::log(4.0) / 200.0;
    const lppm::OptimalGeoIndMechanism exact(exact_config);
    EXPECT_LE(report.quality_loss,
              report.dilation * exact.expected_quality_loss() + 1e-6)
        << "side=" << side;
    EXPECT_GE(report.quality_loss,
              exact.expected_quality_loss() - 1e-6)  // never beats exact
        << "side=" << side;
  }
}

TEST(ApproximateOptimal, DeterministicAcrossBuilds) {
  lppm::ApproximateBuildReport a_report;
  lppm::ApproximateBuildReport b_report;
  const auto a = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(6), &a_report);
  const auto b = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(6), &b_report);
  EXPECT_EQ(a_report.dilation, b_report.dilation);
  EXPECT_EQ(a_report.quality_loss, b_report.quality_loss);
  for (std::size_t i = 0; i < a.cell_count(); ++i) {
    const auto& ra = channel_row(a, i);
    const auto& rb = channel_row(b, i);
    for (std::size_t j = 0; j < ra.size(); ++j) {
      ASSERT_EQ(ra[j], rb[j]) << i << "," << j;
    }
  }
}

TEST(ApproximateOptimal, DecomposedBuildReusesSameShapeWindows) {
  // 8x8 with 4-cell windows and overlap 1: 16 windows but only 4 distinct
  // shapes, and a uniform prior makes every same-shape objective
  // identical -- so exactly 4 cold solves and 12 pure reuses.
  lppm::ApproximateBuildReport report;
  const auto mech = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(8), &report);
  EXPECT_EQ(report.windows, 16u);
  EXPECT_EQ(report.window_solves_cold, 4u);
  EXPECT_EQ(report.window_solves_warm, 0u);
  EXPECT_EQ(report.window_reuse_hits, 12u);
  EXPECT_GT(report.solve_stats.pivots, 0u);
  EXPECT_GT(report.lp_constraints, 0u);
  // Smoothing keeps the stitched rows stochastic and the seam budget
  // finite (though larger than the intra-window epsilon).
  for (std::size_t i = 0; i < mech.cell_count(); ++i) {
    double sum = 0.0;
    for (const double p : channel_row(mech, i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_TRUE(std::isfinite(report.boundary_epsilon));
  EXPECT_GE(report.boundary_epsilon, report.intra_window_epsilon);
}

TEST(ApproximateOptimal, NonUniformPriorTakesWarmRestartPath) {
  // Concentrated mass makes the windows near it carry distinct local
  // priors: same constraints, new objective -> warm phase-2 restarts.
  auto config = approx_config(6);
  config.prior.assign(36, 0.3 / 35.0);
  config.prior[14] = 0.7;
  lppm::ApproximateBuildReport report;
  const auto mech =
      lppm::OptimalGeoIndMechanism::build_approximate(config, &report);
  EXPECT_GE(report.window_solves_warm, 1u);
  EXPECT_GE(report.window_solves_cold, 1u);
  for (std::size_t i = 0; i < mech.cell_count(); ++i) {
    double sum = 0.0;
    for (const double p : channel_row(mech, i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ApproximateOptimal, DisablingSmoothingLeavesSeamsUnbounded) {
  auto config = approx_config(8);
  config.boundary_smoothing = 0.0;
  lppm::ApproximateBuildReport report;
  (void)lppm::OptimalGeoIndMechanism::build_approximate(config, &report);
  // Without the uniform floor, adjacent windows can assign zero where the
  // neighbor assigns mass: the honest report is an infinite seam budget.
  EXPECT_TRUE(std::isinf(report.boundary_epsilon));
}

TEST(ApproximateOptimal, BuildsThousandCellGridQuickly) {
  // The headline acceptance: 32x32 = 1024 cells, infeasible for the dense
  // exact solver, builds in well under a minute.
  lppm::ApproximateBuildReport report;
  const auto mech = lppm::OptimalGeoIndMechanism::build_approximate(
      approx_config(32), &report);
  EXPECT_EQ(report.cells, 1024u);
  EXPECT_EQ(mech.cell_count(), 1024u);
  EXPECT_EQ(report.windows, 256u);
  EXPECT_GE(report.window_reuse_hits, 200u);  // uniform prior: shape reuse
  EXPECT_LT(report.construct_seconds, 60.0);
  EXPECT_GT(report.quality_loss, 0.0);
  EXPECT_LE(report.dilation, 1.5);
  // Spot-check stitched rows at a corner, an edge, and the interior.
  for (const std::size_t i : {0u, 31u, 528u}) {
    double sum = 0.0;
    for (const double p : channel_row(mech, i)) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ApproximateOptimal, RejectsInvalidConfigs) {
  auto c = approx_config(8);
  c.per_side = 1;
  EXPECT_THROW(lppm::OptimalGeoIndMechanism::build_approximate(c),
               util::InvalidArgument);
  c = approx_config(8);
  c.spanner_dilation = 1.0;
  EXPECT_THROW(lppm::OptimalGeoIndMechanism::build_approximate(c),
               util::InvalidArgument);
  c = approx_config(8);
  c.window_overlap = 2;  // 2 * overlap must stay below window_side = 4
  EXPECT_THROW(lppm::OptimalGeoIndMechanism::build_approximate(c),
               util::InvalidArgument);
  c = approx_config(8);
  c.boundary_smoothing = 1.0;
  EXPECT_THROW(lppm::OptimalGeoIndMechanism::build_approximate(c),
               util::InvalidArgument);
  c = approx_config(8);
  c.prior.assign(64, 0.0);  // zero mass
  EXPECT_THROW(lppm::OptimalGeoIndMechanism::build_approximate(c),
               util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad
