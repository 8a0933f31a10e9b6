// Unit and property tests for the geometry substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geo/bounding_box.hpp"
#include "geo/circle.hpp"
#include "geo/grid_index.hpp"
#include "geo/latlon.hpp"
#include "geo/point.hpp"
#include "geo/projection.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::geo {
namespace {

using oracles::box_contains;
using oracles::GeoBox;
using oracles::haversine_distance;
using oracles::rad_to_deg;
using oracles::shanghai_geo_box;
using oracles::to_local;

// ------------------------------------------------------------------ Point

TEST(Point, ArithmeticOperators) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Point{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Point{0.5, 1.0}));
}

TEST(Point, DistanceMatchesPythagoras) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_squared({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(norm({-3, 4}), 5.0);
}

TEST(Point, CentroidOfSymmetricSquareIsCenter) {
  const std::vector<Point> square{{0, 0}, {2, 0}, {2, 2}, {0, 2}};
  const Point c = centroid(square);
  EXPECT_DOUBLE_EQ(c.x, 1.0);
  EXPECT_DOUBLE_EQ(c.y, 1.0);
}

// ----------------------------------------------------------------- LatLon

TEST(LatLon, HaversineKnownDistance) {
  // People's Square to Lujiazui, Shanghai: roughly 4.5 km.
  const LatLon peoples_square{31.2304, 121.4737};
  const LatLon lujiazui{31.2397, 121.4998};
  const double d = haversine_distance(peoples_square, lujiazui);
  EXPECT_GT(d, 2000.0);
  EXPECT_LT(d, 4000.0);
}

TEST(LatLon, HaversineZeroForIdenticalPoints) {
  const LatLon p{31.0, 121.5};
  EXPECT_DOUBLE_EQ(haversine_distance(p, p), 0.0);
}

TEST(LatLon, HaversineIsSymmetric) {
  const LatLon a{30.8, 121.2};
  const LatLon b{31.3, 121.9};
  EXPECT_DOUBLE_EQ(haversine_distance(a, b), haversine_distance(b, a));
}

TEST(LatLon, DegreeRadianRoundTrip) {
  EXPECT_NEAR(rad_to_deg(deg_to_rad(37.5)), 37.5, 1e-12);
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), std::numbers::pi);
}

// ------------------------------------------------------------- projection

TEST(Projection, OriginMapsToZero) {
  const LocalProjection proj(LatLon{31.0, 121.5});
  const LatLon origin = proj.to_geo(Point{0.0, 0.0});
  EXPECT_NEAR(origin.lat_deg, 31.0, 1e-12);
  EXPECT_NEAR(origin.lon_deg, 121.5, 1e-12);
}

TEST(Projection, RoundTripIsExact) {
  const LocalProjection proj = shanghai_projection();
  const LatLon geo{31.1234, 121.6789};
  const LatLon back = proj.to_geo(to_local(proj, geo));
  EXPECT_NEAR(back.lat_deg, geo.lat_deg, 1e-12);
  EXPECT_NEAR(back.lon_deg, geo.lon_deg, 1e-12);
}

TEST(Projection, RejectsPolarOrigin) {
  EXPECT_THROW(LocalProjection(LatLon{89.5, 0.0}), util::InvalidArgument);
}

// Property sweep: projected Euclidean distance must agree with haversine
// within 0.5% over the whole Shanghai study box.
struct ProjPair {
  LatLon a;
  LatLon b;
};

class ProjectionAccuracy : public ::testing::TestWithParam<ProjPair> {};

TEST_P(ProjectionAccuracy, MatchesHaversineWithinHalfPercent) {
  const LocalProjection proj = shanghai_projection();
  const auto& [a, b] = GetParam();
  const double euclid = distance(to_local(proj, a), to_local(proj, b));
  const double sphere = haversine_distance(a, b);
  ASSERT_GT(sphere, 0.0);
  EXPECT_NEAR(euclid / sphere, 1.0, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    ShanghaiBox, ProjectionAccuracy,
    ::testing::Values(
        ProjPair{{30.7, 121.0}, {31.4, 122.0}},   // box diagonal
        ProjPair{{30.7, 121.0}, {30.7, 122.0}},   // southern edge
        ProjPair{{31.4, 121.0}, {31.4, 122.0}},   // northern edge
        ProjPair{{30.7, 121.5}, {31.4, 121.5}},   // meridian
        ProjPair{{31.0, 121.4}, {31.0015, 121.4}},  // ~166 m, attack scale
        ProjPair{{31.05, 121.49}, {31.05, 121.51}}));  // ~1.9 km

// ----------------------------------------------------------------- Circle

TEST(Circle, AreaAndContainment) {
  const Circle c({0, 0}, 2.0);
  EXPECT_DOUBLE_EQ(c.area(), std::numbers::pi * 4.0);
}

TEST(Circle, NegativeRadiusRejected) {
  EXPECT_THROW(Circle({0, 0}, -1.0), util::InvalidArgument);
}

TEST(CircleIntersection, DisjointCirclesHaveZeroArea) {
  const Circle a({0, 0}, 1.0);
  const Circle b({3, 0}, 1.0);
  EXPECT_DOUBLE_EQ(intersection_area(a, b), 0.0);
}

TEST(CircleIntersection, ContainedCircleGivesSmallerArea) {
  const Circle big({0, 0}, 5.0);
  const Circle small({1, 0}, 1.0);
  EXPECT_DOUBLE_EQ(intersection_area(big, small), small.area());
  EXPECT_DOUBLE_EQ(intersection_area(small, big), small.area());
}

TEST(CircleIntersection, CoincidentCirclesGiveFullArea) {
  const Circle a({2, 3}, 4.0);
  EXPECT_NEAR(intersection_area(a, a), a.area(), 1e-9);
  EXPECT_NEAR(overlap_fraction(a, a), 1.0, 1e-12);
}

TEST(CircleIntersection, HalfOffsetEqualRadiiKnownValue) {
  // Two unit circles at distance 1: lens area = 2*pi/3 - sqrt(3)/2.
  const Circle a({0, 0}, 1.0);
  const Circle b({1, 0}, 1.0);
  const double expected = 2.0 * std::numbers::pi / 3.0 - std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(intersection_area(a, b), expected, 1e-12);
}

TEST(CircleIntersection, TangentCirclesHaveZeroArea) {
  const Circle a({0, 0}, 1.0);
  const Circle b({2, 0}, 1.0);
  EXPECT_DOUBLE_EQ(intersection_area(a, b), 0.0);
}

// Property sweep: the lens area must be symmetric, monotone decreasing in
// center distance, and bounded by the smaller circle's area.
class LensProperty : public ::testing::TestWithParam<double> {};

TEST_P(LensProperty, SymmetricBoundedMonotone) {
  const double d = GetParam();
  const Circle a({0, 0}, 5000.0);
  const Circle b({d, 0}, 5000.0);
  const Circle b_next({d + 500.0, 0}, 5000.0);

  const double area = intersection_area(a, b);
  EXPECT_DOUBLE_EQ(area, intersection_area(b, a));
  EXPECT_GE(area, 0.0);
  EXPECT_LE(area, a.area() + 1e-9);
  EXPECT_GE(area, intersection_area(a, b_next) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(DistanceSweep, LensProperty,
                         ::testing::Values(0.0, 500.0, 1000.0, 2500.0, 5000.0,
                                           7500.0, 9999.0, 10000.0, 12000.0));

TEST(OverlapFraction, RequiresPositiveAoiRadius) {
  const Circle degenerate({0, 0}, 0.0);
  const Circle b({1, 0}, 1.0);
  EXPECT_THROW(overlap_fraction(degenerate, b), util::InvalidArgument);
}

// ------------------------------------------------------------ BoundingBox

TEST(BoundingBox, ContainsAndClamp) {
  const BoundingBox box({0, 0}, {10, 5});
  EXPECT_TRUE(box_contains(box, {5, 2}));
  EXPECT_TRUE(box_contains(box, {0, 0}));
  EXPECT_FALSE(box_contains(box, {11, 2}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
  EXPECT_DOUBLE_EQ(box.height(), 5.0);
}

TEST(BoundingBox, RejectsInvertedCorners) {
  EXPECT_THROW(BoundingBox({1, 0}, {0, 1}), util::InvalidArgument);
}

TEST(GeoBox, ShanghaiBoxMatchesPaper) {
  const GeoBox box = shanghai_geo_box();
  EXPECT_TRUE(box.contains(LatLon{31.0, 121.5}));
  EXPECT_FALSE(box.contains(LatLon{32.0, 121.5}));
  EXPECT_FALSE(box.contains(LatLon{31.0, 120.5}));
}

// -------------------------------------------------------------- GridIndex

/// Indices of every live point of `index` within `radius_m` of `query`.
std::vector<std::size_t> within(const GridIndex& index, Point query,
                                double radius_m) {
  std::vector<std::size_t> hits;
  index.for_each_within(query, radius_m,
                        [&hits](std::size_t i, double) { hits.push_back(i); });
  return hits;
}

TEST(GridIndex, FindsExactlyTheNeighborsWithinRadius) {
  const std::vector<Point> points{{0, 0}, {10, 0}, {60, 0}, {0, 45}, {100, 100}};
  const GridIndex index(points, 50.0);
  const auto hits = within(index, {0, 0}, 50.0);
  // {0,0}, {10,0}, {0,45} are within 50 m; {60,0} and {100,100} are not.
  EXPECT_EQ(hits.size(), 3u);
}

TEST(GridIndex, RadiusLargerThanCellStillCorrect) {
  const std::vector<Point> points{{0, 0}, {120, 0}, {240, 0}};
  const GridIndex index(points, 50.0);
  EXPECT_EQ(within(index, {0, 0}, 130.0).size(), 2u);
  EXPECT_EQ(within(index, {0, 0}, 250.0).size(), 3u);
}

/// within() in ascending index order: a take reorders its cell's slots.
std::vector<std::size_t> sorted_within(const GridIndex& index, Point query,
                                       double radius_m) {
  std::vector<std::size_t> hits = within(index, query, radius_m);
  std::sort(hits.begin(), hits.end());
  return hits;
}

/// Sorted hits of `index` against the brute-force filter over the
/// untaken points.
void expect_live_within(const GridIndex& index, Point query,
                        double radius_m) {
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (!index.taken(i) && distance(index.points()[i], query) <= radius_m) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(sorted_within(index, query, radius_m), expected);
}

/// For every point (taken or not): a query at the point with radius =
/// cell size -- the component walk's query, which searches three rows of
/// cells -- finds exactly the live points within one cell size.
void expect_cell_radius_queries_match(const GridIndex& index) {
  for (std::size_t i = 0; i < index.size(); ++i) {
    SCOPED_TRACE(i);
    expect_live_within(index, index.points()[i], index.cell_size());
  }
}

TEST(GridIndex, NegativeCoordinatesHandled) {
  const std::vector<Point> points{{-75, -75}, {-25, -25}, {25, 25}};
  const GridIndex index(points, 50.0);
  EXPECT_EQ(within(index, {-50, -50}, 40.0).size(), 2u);

  // A cloud straddling cells -1/0 (and -2/1) on both axes, on and next
  // to the cell edges: keys order by signed (x, y), so rows -1, 0 and 1
  // are three adjacent runs and a query's rows cross the sign.
  const double coords[] = {-75.0, -50.0, -49.9, -25.0, -0.1, 0.0,
                           0.1,   25.0,  49.9,  50.0,  75.0};
  std::vector<Point> straddling;
  for (const double x : coords) {
    for (const double y : coords) straddling.push_back({x, y});
  }
  GridIndex grid(straddling, 50.0);
  expect_cell_radius_queries_match(grid);
  for (std::size_t i = 0; i < straddling.size(); i += 3) grid.take(i);
  expect_cell_radius_queries_match(grid);
  expect_live_within(grid, {-0.05, 0.05}, 120.0);
}

TEST(GridIndex, RejectsNonPositiveCellSize) {
  EXPECT_THROW(GridIndex({{0, 0}}, 0.0), util::InvalidArgument);
}

// Property: brute force and grid index agree on a pseudo-random cloud.
TEST(GridIndex, AgreesWithBruteForce) {
  std::vector<Point> points;
  // Deterministic low-discrepancy-ish cloud, no RNG dependency in geo tests.
  for (int i = 0; i < 500; ++i) {
    const double x = std::fmod(i * 127.3, 1000.0) - 500.0;
    const double y = std::fmod(i * 311.7, 1000.0) - 500.0;
    points.push_back({x, y});
  }
  const GridIndex index(points, 50.0);
  const Point query{13.0, -42.0};
  const double radius = 75.0;

  std::size_t brute = 0;
  for (const Point& p : points) {
    if (distance(p, query) <= radius) ++brute;
  }
  EXPECT_EQ(within(index, query, radius).size(), brute);
}

// ------------------------------------------------ GridIndex rebuild

TEST(GridIndex, ReviveAllRestoresEveryPoint) {
  // Rebuilding over the same points brings every taken point back.
  const std::vector<Point> points{{0, 0}, {10, 0}, {20, 0}};
  GridIndex index(points, 50.0);
  index.take(0);
  index.take(2);
  EXPECT_EQ(within(index, {0, 0}, 30.0).size(), 1u);
  index.rebuild(points, 50.0);
  EXPECT_EQ(within(index, {0, 0}, 30.0).size(), 3u);
  EXPECT_FALSE(index.taken(0));
  EXPECT_FALSE(index.taken(2));
}

TEST(GridIndex, RebuildReplacesContentsAndRevives) {
  GridIndex index({{0, 0}, {10, 0}}, 50.0);
  index.take(0);
  // Rebuild with a different cloud (and different cell size): the old
  // generation's taken points must not leak into the new one.
  index.rebuild({{5, 5}, {15, 5}, {500, 500}}, 40.0);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_FALSE(index.taken(0));
  EXPECT_EQ(within(index, {5, 5}, 20.0).size(), 2u);
  EXPECT_THROW(index.rebuild({{0, 0}}, 0.0), util::InvalidArgument);
}

TEST(GridIndex, DefaultConstructedThenRebuilt) {
  GridIndex index;
  EXPECT_EQ(index.size(), 0u);
  index.rebuild({{0, 0}, {25, 0}}, 30.0);
  EXPECT_EQ(within(index, {0, 0}, 26.0).size(), 2u);
}

// ---------------------------------------------------- GridIndex take

TEST(GridIndex, TakenPointsVanishFromQueries) {
  const std::vector<Point> points{{0, 0}, {10, 0}, {20, 0}, {-30, 5}};
  GridIndex index(points, 50.0);
  index.take(1);
  EXPECT_TRUE(index.taken(1));
  EXPECT_FALSE(index.taken(0));
  EXPECT_EQ(sorted_within(index, {0, 0}, 40.0),
            (std::vector<std::size_t>{0, 2, 3}));
  index.take(3);
  index.take(0);
  EXPECT_EQ(sorted_within(index, {0, 0}, 40.0),
            (std::vector<std::size_t>{2}));
  index.put_back(1);
  EXPECT_FALSE(index.taken(1));
  expect_live_within(index, {0, 0}, 40.0);
  EXPECT_EQ(within(index, {0, 0}, 40.0).size(), 2u);
}

TEST(GridIndex, RebuildAndReviveAllReturnTakenPoints) {
  std::vector<Point> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({std::fmod(i * 127.3, 300.0) - 150.0,
                      std::fmod(i * 311.7, 300.0) - 150.0});
  }
  GridIndex index(points, 40.0);
  const Point query{3.0, -11.0};
  const std::vector<std::size_t> fresh = within(index, query, 120.0);
  for (std::size_t i = 0; i < points.size(); i += 2) index.take(i);
  for (std::size_t i = 0; i < points.size(); i += 6) index.put_back(i);
  for (std::size_t i = 1; i < points.size(); i += 5) {
    if (!index.taken(i)) index.take(i);
  }
  expect_live_within(index, query, 120.0);

  // rebuild restores the fresh build's visit order, not only its set.
  index.rebuild(points, 40.0);
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_FALSE(index.taken(i));
  EXPECT_EQ(within(index, query, 120.0), fresh);
}

TEST(GridIndex, ManyTakesInOneCellMatchBruteForce) {
  // 600 points in one 100 m cell, taken in a scrambled order (step 7919
  // is coprime to 600) with every fourth taken point put back later:
  // each take swaps slots, and queries must track every swap.
  constexpr std::size_t kN = 600;
  std::vector<Point> points;
  for (std::size_t i = 0; i < kN; ++i) {
    points.push_back({std::fmod(i * 37.1, 99.0), std::fmod(i * 53.9, 99.0)});
  }
  GridIndex index(points, 100.0);
  std::vector<std::size_t> held;
  for (std::size_t step = 0; step < kN; ++step) {
    const std::size_t i = (step * 7919) % kN;
    index.take(i);
    if (step % 4 == 0) held.push_back(i);
    if (step % 40 == 39) {
      for (const std::size_t h : held) index.put_back(h);
      held.clear();
    }
    if (step % 25 == 0) {
      expect_live_within(index, points[i], 30.0);
      expect_live_within(index, {50.0, 50.0}, 200.0);
    }
  }
  for (const std::size_t h : held) index.put_back(h);
  expect_live_within(index, {50.0, 50.0}, 200.0);
}

TEST(GridIndex, RejectsCellIndexOutsideInt32) {
  // floor(1e4 / 1e-6) = 1e10 does not fit a 32-bit cell index.
  EXPECT_THROW(GridIndex({{1e4, 0}}, 1e-6), util::InvalidArgument);
  EXPECT_THROW(GridIndex({{0, -1e4}}, 1e-6), util::InvalidArgument);
  GridIndex index;
  EXPECT_THROW(index.rebuild({{0, 0}, {1e4, 1e4}}, 1e-6),
               util::InvalidArgument);
  EXPECT_THROW(index.rebuild({{std::nan(""), 0}}, 1.0),
               util::InvalidArgument);

  // A query whose own cell is out of range throws too; one whose 3x3
  // neighbourhood only reaches past int32 scans the cells that exist.
  index.rebuild({{0, 0}, {2.1e9, 0}}, 1.0);
  EXPECT_THROW(within(index, {1e10, 0}, 1.0), util::InvalidArgument);
  EXPECT_EQ(within(index, {2.1e9, 0}, 1.0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(within(index, {2147483647.0, 0}, 1.0).size(), 0u);

  // Points in the int32 extreme cells on both axes, where a query's row
  // (x - 1 or x + 1) or column (y - 1 or y + 1) lies outside int32: the
  // clamped row search still finds every live neighbour, before and
  // after takes.
  const double lo = -2147483648.0;  // lower edge of cell INT32_MIN
  const double hi = 2147483647.0;   // lower edge of cell INT32_MAX
  const std::vector<Point> extremes{
      {lo + 0.5, lo + 0.5}, {lo + 0.5, hi + 0.5}, {hi + 0.5, lo + 0.5},
      {hi + 0.5, hi + 0.5}, {lo + 1.2, lo + 0.9}, {lo + 0.5, lo + 1.4},
      {hi + 0.2, hi - 0.3}, {hi - 0.6, hi + 0.9}, {lo + 0.9, hi + 0.1},
      {hi + 0.9, lo + 0.1}, {0.5, lo + 0.5},      {hi + 0.5, 0.5}};
  index.rebuild(extremes, 1.0);
  expect_cell_radius_queries_match(index);
  EXPECT_EQ(sorted_within(index, {lo + 0.5, lo + 0.5}, 1.0),
            (std::vector<std::size_t>{0, 4, 5}));
  index.take(4);
  index.take(7);
  expect_cell_radius_queries_match(index);
  expect_live_within(index, {hi + 0.5, hi + 0.5}, 3.0);
}

}  // namespace
}  // namespace privlocad::geo
