// Tests for the cell-sharded edge cluster (multi-edge deployment).
#include <gtest/gtest.h>

#include <limits>

#include "core/edge_cluster.hpp"
#include "util/validation.hpp"

namespace privlocad::core {
namespace {

// ------------------------------------------------------------ edge cluster

EdgeClusterConfig cluster_config() {
  EdgeClusterConfig c;
  c.edge.top_params.radius_m = 500.0;
  c.edge.top_params.epsilon = 1.0;
  c.edge.top_params.delta = 0.01;
  c.edge.top_params.n = 10;
  c.edge.management.window_seconds = 1000;
  c.cell_size_m = 10000.0;
  return c;
}

/// Requests the cluster routed to cell (cx, cy), read from cell_loads().
std::size_t requests_served(const EdgeCluster& cluster, std::int32_t cx,
                            std::int32_t cy) {
  for (const EdgeCluster::CellLoad& cell : cluster.cell_loads()) {
    if (cell.cx == cx && cell.cy == cy) return cell.requests;
  }
  return 0;
}

TEST(EdgeCluster, RoutesRequestsToCellDevices) {
  EdgeCluster cluster(cluster_config().with_seed(1));
  cluster.serve(1, {1000, 1000}, 0);     // cell (0, 0)
  cluster.serve(1, {15000, 1000}, 1);    // cell (1, 0)
  cluster.serve(2, {1000, 1000}, 2);     // cell (0, 0)
  EXPECT_EQ(cluster.active_devices(), 2u);
  EXPECT_EQ(requests_served(cluster, 0, 0), 2u);
  EXPECT_EQ(requests_served(cluster, 1, 0), 1u);
  EXPECT_EQ(requests_served(cluster, 5, 5), 0u);
}

TEST(EdgeCluster, NegativeCoordinatesGetOwnCells) {
  EdgeCluster cluster(cluster_config().with_seed(2));
  cluster.serve(1, {-1000, -1000}, 0);   // cell (-1, -1)
  cluster.serve(1, {1000, 1000}, 1);     // cell (0, 0)
  EXPECT_EQ(cluster.active_devices(), 2u);
  EXPECT_EQ(requests_served(cluster, -1, -1), 1u);
}

TEST(EdgeCluster, CellLoadsCoverEveryActiveCell) {
  // Load stats must see devices however far out the population wandered --
  // including cells far outside any fixed scan window like [-4, 4].
  EdgeCluster cluster(cluster_config().with_seed(7));
  cluster.serve(1, {1000, 1000}, 0);       // cell (0, 0)
  cluster.serve(1, {1500, 1200}, 1);       // cell (0, 0)
  cluster.serve(2, {-95000, 1000}, 2);     // cell (-10, 0)
  cluster.serve(3, {250000, 250000}, 3);   // cell (25, 25)

  const std::vector<EdgeCluster::CellLoad> loads = cluster.cell_loads();
  ASSERT_EQ(loads.size(), 3u);
  // Sorted by (cx, cy).
  EXPECT_EQ(loads[0].cx, -10);
  EXPECT_EQ(loads[0].cy, 0);
  EXPECT_EQ(loads[0].requests, 1u);
  EXPECT_EQ(loads[1].cx, 0);
  EXPECT_EQ(loads[1].requests, 2u);
  EXPECT_EQ(loads[2].cx, 25);
  EXPECT_EQ(loads[2].cy, 25);

  std::size_t total = 0;
  for (const auto& cell : loads) total += cell.requests;
  EXPECT_EQ(total, 4u);
}

TEST(EdgeCluster, DeviceForIsStablePerCell) {
  EdgeCluster cluster(cluster_config().with_seed(3));
  cluster.serve(1, {100, 100}, 0);
  cluster.serve(1, {9000, 9000}, 1);  // same 10 km cell
  EXPECT_EQ(cluster.active_devices(), 1u);
  EXPECT_EQ(requests_served(cluster, 0, 0), 2u);
  cluster.serve(1, {11000, 100}, 2);  // next cell
  EXPECT_EQ(cluster.active_devices(), 2u);
  EXPECT_EQ(requests_served(cluster, 1, 0), 1u);
}

TEST(EdgeCluster, CellDevicesKeepIndependentProfileSlices) {
  // Devices share nothing: a commuter's home device learns only home and
  // the office device only the office. 12 office check-ins next to 100 at
  // home fall outside a merged profile's 80% eta prefix (home alone
  // covers it), but on the office device's own slice the office is the
  // top location.
  const geo::Point home{1000, 1000};     // cell (0, 0)
  const geo::Point office{15000, 1000};  // cell (1, 0)
  const auto commute = [&](auto& box) {
    trace::Timestamp t = 0;
    for (int i = 0; i < 100; ++i) (void)box.serve(9, home, t++);
    for (int i = 0; i < 12; ++i) (void)box.serve(9, office, t++);
  };
  EdgeCluster cluster(cluster_config().with_seed(4));
  commute(cluster);
  // The next window: each device rebuilds from its own slice.
  for (const geo::Point p : {office, home}) {
    const ServeResult r = cluster.serve(9, p, 2000);
    ASSERT_TRUE(r.released());
    EXPECT_EQ(r.reported.kind, ReportKind::kTopLocation);
  }

  // Control: one device that saw both slices keeps only home as a top
  // location.
  EdgeDevice merged(cluster_config().edge.with_seed(4));
  commute(merged);
  const ServeResult r = merged.serve(9, office, 2000);
  ASSERT_TRUE(r.released());
  EXPECT_EQ(r.reported.kind, ReportKind::kNomadic);
}

TEST(EdgeCluster, OffPlaneCoordinatesFailBeforeAnyCellIsComputed) {
  // NaN would reach an undefined float-to-int32 cast in the cell key, so
  // the check runs first: no device is created and no cell counts the
  // request.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EdgeCluster cluster(cluster_config().with_seed(6));
  for (const geo::Point p : {geo::Point{kNan, 0.0}, geo::Point{0.0, -kInf},
                             geo::Point{kInf, 1e300}, geo::Point{3e7, 0.0}}) {
    const ServeResult r = cluster.serve(1, p, 0);
    EXPECT_EQ(r.outcome, ServeOutcome::kFailed);
    EXPECT_EQ(r.status.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_FALSE(r.released());
  }
  EXPECT_EQ(cluster.active_devices(), 0u);
  EXPECT_TRUE(cluster.cell_loads().empty());
}

TEST(EdgeCluster, RejectsBadCellSize) {
  EdgeClusterConfig bad = cluster_config();
  bad.cell_size_m = 0.0;
  EXPECT_THROW(EdgeCluster(bad.with_seed(1)), util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::core
