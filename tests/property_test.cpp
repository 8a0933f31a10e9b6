// Cross-module property suites (parameterized sweeps).
//
// These tests pin down the *relationships* the paper's analysis depends
// on, across the whole parameter grid the evaluation uses -- rather than
// spot values: calibration monotonicity, mechanism displacement quantiles,
// utilization monotonicity in n, attack error scaling, selection-sharpness
// invariance, and eta-frequent minimality under random profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <utility>

#include "attack/clustering.hpp"
#include "attack/deobfuscation.hpp"
#include "attack/profile.hpp"
#include "core/eta_frequent.hpp"
#include "core/output_selection.hpp"
#include "geo/grid_index.hpp"
#include "lppm/baselines.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/planar_laplace.hpp"
#include "opt/simplex.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "simd/kernels.hpp"
#include "stats/quantiles.hpp"
#include "stats/running_stats.hpp"
#include "utility/metrics.hpp"
#include "oracles.hpp"

namespace privlocad {
namespace {

lppm::BoundedGeoIndParams make_params(std::size_t n, double eps, double r) {
  lppm::BoundedGeoIndParams p;
  p.n = n;
  p.epsilon = eps;
  p.radius_m = r;
  p.delta = 0.01;
  return p;
}

// ------------------------------------------------- calibration monotonicity

struct CalibCase {
  double eps;
  double r;
};

class CalibrationMonotonicity : public ::testing::TestWithParam<CalibCase> {};

TEST_P(CalibrationMonotonicity, SigmaGrowsAsSqrtN) {
  const auto& [eps, r] = GetParam();
  double prev_ratio = 0.0;
  for (std::size_t n = 1; n <= 10; ++n) {
    const double sigma = lppm::n_fold_sigma(make_params(n, eps, r));
    const double expected =
        std::sqrt(static_cast<double>(n)) *
        lppm::one_fold_sigma(r, eps, 0.01);
    EXPECT_NEAR(sigma, expected, 1e-9);
    // composition sigma must dominate n-fold for n >= 2 and the gap widens
    const double comp = lppm::composition_sigma(make_params(n, eps, r));
    const double ratio = comp / sigma;
    if (n == 1) {
      EXPECT_NEAR(ratio, 1.0, 1e-12);
    } else {
      EXPECT_GT(ratio, prev_ratio);
    }
    prev_ratio = ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, CalibrationMonotonicity,
    ::testing::Values(CalibCase{1.0, 500.0}, CalibCase{1.5, 500.0},
                      CalibCase{1.0, 800.0}, CalibCase{0.5, 600.0}));

// ----------------------------------------- mechanism displacement quantiles

class DisplacementQuantiles
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DisplacementQuantiles, EmpiricalQuantilesMatchRayleigh) {
  const auto [eps, r] = GetParam();
  const lppm::NFoldGaussianMechanism mech(make_params(1, eps, r));
  rng::Engine e(11);
  std::vector<double> displacements;
  constexpr int kN = 8000;
  displacements.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    displacements.push_back(geo::norm(mech.obfuscate(e, {0, 0})[0]));
  }
  // Median of Rayleigh(sigma) is sigma * sqrt(2 ln 2).
  const double median = stats::quantile(displacements, 0.5);
  const double expected = mech.sigma() * std::sqrt(2.0 * std::log(2.0));
  EXPECT_NEAR(median / expected, 1.0, 0.05);
  // 95th percentile matches tail_radius(0.05).
  const double p95 = stats::quantile(displacements, 0.95);
  EXPECT_NEAR(p95 / mech.tail_radius(0.05), 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    EpsRadiusGrid, DisplacementQuantiles,
    ::testing::Combine(::testing::Values(1.0, 1.5),
                       ::testing::Values(500.0, 800.0)));

// ------------------------------------------------ UR monotonicity in n

class UrMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(UrMonotonicity, NFoldUtilizationRisesWithN) {
  const double eps = GetParam();
  double prev = 0.0;
  for (const std::size_t n : {1u, 3u, 6u, 10u}) {
    const lppm::NFoldGaussianMechanism mech(make_params(n, eps, 500.0));
    const rng::Engine parent(23);
    stats::RunningStats ur;
    for (int t = 0; t < 600; ++t) {
      rng::Engine e = parent.split(t);
      const auto candidates = mech.obfuscate(e, {0, 0});
      ur.add(utility::utilization_rate(e, {0, 0}, candidates, 5000.0, 128));
    }
    EXPECT_GT(ur.mean(), prev - 0.02) << "n = " << n;  // allow MC noise
    prev = ur.mean();
  }
  EXPECT_GT(prev, 0.85);  // n = 10 reaches high coverage for both eps
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, UrMonotonicity,
                         ::testing::Values(1.0, 1.5));

// -------------------------------------------- attack error ~ 1/sqrt(N) law

class AttackScaling : public ::testing::TestWithParam<double> {};

TEST_P(AttackScaling, ErrorShrinksRoughlyAsSqrtN) {
  const double level = GetParam();
  const lppm::PlanarLaplaceMechanism mech({level, 200.0});
  attack::DeobfuscationConfig config;
  config.trim_radius_m = mech.tail_radius(0.05);
  config.connectivity_threshold_m = config.trim_radius_m / 4.0;

  auto mean_error = [&](int observations) {
    stats::RunningStats err;
    for (int rep = 0; rep < 12; ++rep) {
      rng::Engine e(rng::Engine(31).split(rep * 1000 + observations));
      std::vector<geo::Point> observed;
      for (int i = 0; i < observations; ++i) {
        observed.push_back(mech.obfuscate_one(e, {0, 0}));
      }
      const auto inferred =
          attack::deobfuscate_top_locations(observed, config);
      err.add(geo::norm(inferred.at(0).location));
    }
    return err.mean();
  };

  const double e100 = mean_error(100);
  const double e1600 = mean_error(1600);
  // 16x more data -> ~4x less error; accept [2.2x, 7x] for MC noise.
  const double gain = e100 / e1600;
  EXPECT_GT(gain, 2.2) << "level " << level;
  EXPECT_LT(gain, 7.0) << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(LevelSweep, AttackScaling,
                         ::testing::Values(std::log(2.0), std::log(4.0),
                                           std::log(6.0)));

// ------------------------------------- selection invariants across the grid

class SelectionInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(SelectionInvariants, ProbabilitiesNormalizedAndOrderedByDistance) {
  const auto [n, eps] = GetParam();
  const lppm::NFoldGaussianMechanism mech(make_params(n, eps, 500.0));
  rng::Engine e(41);
  for (int trial = 0; trial < 50; ++trial) {
    const auto candidates = mech.obfuscate(e, {0, 0});
    const auto probs =
        core::selection_probabilities(candidates, mech.posterior_sigma());
    const double sum = std::accumulate(probs.begin(), probs.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Weights must be monotone non-increasing in distance-to-centroid.
    const geo::Point mean = geo::centroid(candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (geo::distance(candidates[i], mean) <
            geo::distance(candidates[j], mean) - 1e-9) {
          EXPECT_GE(probs[i], probs[j] - 1e-12);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NGrid, SelectionInvariants,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{10}),
                       ::testing::Values(1.0, 1.5)));

// ------------------------------------------- eta-frequent random profiles

class EtaFrequentProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EtaFrequentProperty, PrefixIsMinimalAndOrdered) {
  rng::Engine e(GetParam());
  // Random profile: 1..20 entries with random frequencies.
  const std::size_t count = 1 + e.uniform_index(20);
  std::vector<std::uint64_t> freqs;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    freqs.push_back(1 + e.uniform_index(500));
    total += freqs.back();
  }
  std::sort(freqs.rbegin(), freqs.rend());
  std::vector<attack::ProfileEntry> entries;
  for (std::size_t i = 0; i < count; ++i) {
    entries.push_back(
        {{static_cast<double>(i) * 1000.0, 0.0}, freqs[i]});
  }
  const attack::LocationProfile profile(std::move(entries));

  for (const double fraction : {0.2, 0.5, 0.8, 1.0}) {
    const auto set = core::eta_frequent_set_fraction(profile, fraction);
    ASSERT_FALSE(set.empty());
    const auto eta = static_cast<std::uint64_t>(
        std::ceil(fraction * static_cast<double>(total)));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      sum += set[i].frequency;
      if (i > 0) {
        EXPECT_LE(set[i].frequency, set[i - 1].frequency);
      }
    }
    EXPECT_GE(sum, std::min(eta, total));
    if (set.size() > 1) {
      EXPECT_LT(sum - set.back().frequency, eta);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EtaFrequentProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------ profile clustering scale invariance

class ProfileThreshold : public ::testing::TestWithParam<double> {};

TEST_P(ProfileThreshold, JitteredAnchorsCollapseToOneEntryUnderThreshold) {
  const double jitter = GetParam();
  rng::Engine e(77);
  std::vector<geo::Point> check_ins;
  for (int i = 0; i < 200; ++i) {
    check_ins.push_back(geo::Point{0, 0} + rng::gaussian_noise(e, jitter));
  }
  // With jitter well below threshold/2, everything is one cluster.
  const attack::LocationProfile profile =
      attack::build_profile(check_ins, 50.0);
  if (jitter <= 10.0) {
    EXPECT_EQ(profile.size(), 1u);
    EXPECT_EQ(profile.top(0).frequency, 200u);
  } else {
    // Heavier jitter can fragment; the dominant cluster still carries
    // most of the mass.
    EXPECT_GE(profile.top(0).frequency, 150u);
  }
}

INSTANTIATE_TEST_SUITE_P(JitterSweep, ProfileThreshold,
                         ::testing::Values(2.0, 5.0, 10.0, 15.0));

// ------------------------------------------ simplex vs brute-force vertices

class SimplexRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandom, MatchesBruteForceVertexEnumerationIn2D) {
  // Random bounded 2-variable LPs: the optimum sits on a vertex of the
  // feasible polygon, so enumerating all constraint-pair intersections
  // (including the axes) gives an independent reference optimum.
  rng::Engine e(GetParam());
  const std::size_t m = 3 + e.uniform_index(4);  // 3..6 inequalities

  opt::LpProblem p;
  p.objective = {e.uniform_in(-5.0, 5.0), e.uniform_in(-5.0, 5.0)};
  p.ub_lhs = opt::Matrix(m + 2, 2);
  p.ub_rhs.assign(m + 2, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    p.ub_lhs.at(r, 0) = e.uniform_in(0.1, 3.0);
    p.ub_lhs.at(r, 1) = e.uniform_in(0.1, 3.0);
    p.ub_rhs[r] = e.uniform_in(1.0, 10.0);
  }
  // Box bounds keep every instance bounded: x <= 20, y <= 20.
  p.ub_lhs.at(m, 0) = 1.0;
  p.ub_rhs[m] = 20.0;
  p.ub_lhs.at(m + 1, 1) = 1.0;
  p.ub_rhs[m + 1] = 20.0;

  const opt::LpSolution solution = opt::solve(p);
  ASSERT_EQ(solution.status, opt::LpStatus::kOptimal);

  // Brute force: candidate vertices are intersections of every pair of
  // constraint lines (plus x=0 / y=0), filtered by feasibility.
  struct Line {
    double a, b, c;  // a x + b y = c
  };
  std::vector<Line> lines{{1, 0, 0}, {0, 1, 0}};
  for (std::size_t r = 0; r < m + 2; ++r) {
    lines.push_back({p.ub_lhs.at(r, 0), p.ub_lhs.at(r, 1), p.ub_rhs[r]});
  }
  auto feasible = [&](double x, double y) {
    if (x < -1e-9 || y < -1e-9) return false;
    for (std::size_t r = 0; r < m + 2; ++r) {
      if (p.ub_lhs.at(r, 0) * x + p.ub_lhs.at(r, 1) * y >
          p.ub_rhs[r] + 1e-7) {
        return false;
      }
    }
    return true;
  };
  double best = 1e300;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det =
          lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-12) continue;
      const double x =
          (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      const double y =
          (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      if (feasible(x, y)) {
        best = std::min(best,
                        p.objective[0] * x + p.objective[1] * y);
      }
    }
  }
  ASSERT_LT(best, 1e299) << "reference enumeration found no vertex";
  EXPECT_NEAR(solution.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom,
                         ::testing::Range<std::uint64_t>(100, 120));

// ---------------------------------- component walk vs all-pairs oracle
//
// connectivity_clusters takes each point out of the grid when its walk
// reaches it. Connected components are unique, so its output must equal
// the all-pairs union-find's exactly: same index vectors, same order.

/// Random point cloud with deliberate exact duplicates and exact-tie
/// spacings (duplicates stress the <=/< boundary semantics the
/// clustering relies on).
std::vector<geo::Point> random_cloud(rng::Engine& e, std::size_t n,
                                     double extent) {
  std::vector<geo::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= 8 && i % 7 == 0) {
      points.push_back(points[e.uniform_index(points.size())]);  // duplicate
    } else {
      points.push_back({e.uniform_in(-extent, extent),
                        e.uniform_in(-extent, extent)});
    }
  }
  return points;
}

void expect_components_match_oracle(const std::vector<geo::Point>& points,
                                    double threshold_m) {
  EXPECT_EQ(attack::connectivity_clusters(points, threshold_m),
            oracles::connected_components_bruteforce(points, threshold_m))
      << "theta " << threshold_m << ", " << points.size() << " points";
}

TEST(ComponentOracle, DenseHomeDiskIsOneComponent) {
  // A home location: 3,000 check-ins in a 20 m disk straddling four
  // 50 m cells, with a few strays around it. The visited-bitmap walk did
  // ~m^2 distance evaluations on this shape.
  rng::Engine e(71);
  std::vector<geo::Point> points;
  for (int i = 0; i < 3000; ++i) {
    const double r = 20.0 * std::sqrt(e.uniform());
    const double a = 2.0 * std::numbers::pi * e.uniform();
    points.push_back({5.0 + r * std::cos(a), -5.0 + r * std::sin(a)});
  }
  for (int i = 0; i < 40; ++i) {
    points.push_back({e.uniform_in(-400.0, 400.0), e.uniform_in(-400.0, 400.0)});
  }
  expect_components_match_oracle(points, 50.0);
  EXPECT_GE(attack::connectivity_clusters(points, 50.0).front().size(),
            3000u);
}

TEST(ComponentOracle, ExactDuplicates) {
  std::vector<geo::Point> points;
  for (int i = 0; i < 300; ++i) points.push_back({12.5, -7.25});
  for (int i = 0; i < 200; ++i) points.push_back({112.5, -7.25});
  for (int i = 0; i < 100; ++i) points.push_back({-200.0, 300.0});
  points.push_back({62.5, -7.25});  // exactly theta from both stacks
  expect_components_match_oracle(points, 50.0);
  EXPECT_EQ(attack::connectivity_clusters(points, 50.0).size(), 4u);
}

TEST(ComponentOracle, PairsAtExactlyThetaStayApart) {
  // dx^2 + dy^2 == theta^2 exactly: a row at theta spacing and a 3-4-5
  // diagonal are all singletons; one point just inside theta joins.
  std::vector<geo::Point> points;
  for (int i = -4; i <= 4; ++i) points.push_back({50.0 * i, 0.0});
  points.push_back({1000.0, 1000.0});
  points.push_back({1030.0, 1040.0});
  points.push_back({0.0, 49.999});
  expect_components_match_oracle(points, 50.0);
  const auto clusters = attack::connectivity_clusters(points, 50.0);
  EXPECT_EQ(clusters.size(), points.size() - 1);
  EXPECT_EQ(clusters.front(), (attack::Cluster{4, 11}));
}

TEST(ComponentOracle, CellEdgesAndNegativeCoordinates) {
  // Every coordinate pair from a set that sits on, just inside and just
  // across 50 m cell edges on both sides of the origin.
  const double coords[] = {-150.0, -100.0, -50.0, -49.5, -1.0, 0.0,
                           49.0,   50.0,   99.5,  100.0, 150.0};
  std::vector<geo::Point> points;
  for (const double x : coords) {
    for (const double y : coords) points.push_back({x, y});
  }
  for (const double theta : {50.0, 49.0, 51.0, 1.0, 100.0}) {
    expect_components_match_oracle(points, theta);
  }
}

TEST(ComponentOracle, SeededRandomClouds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    rng::Engine e(seed + 3000);
    const std::size_t n = 200 + e.uniform_index(1000);
    const std::vector<geo::Point> points =
        random_cloud(e, n, e.uniform_in(100.0, 1500.0));
    expect_components_match_oracle(points, e.uniform_in(10.0, 150.0));
  }
}

// ---------------------------------------------- Alg. 1 golden digest
//
// A digest of deobfuscate_top_locations' outputs (count, then location
// bits and support rank by rank) over seeded multi-cluster clouds with
// exact duplicates, top_n 3..5, trimming on and off, through one reused
// workspace. It was recorded while rounds still retired their clusters
// through GridIndex tombstones, and the workspace's retired bitmap
// reproduced it bit for bit, so any drift in stage 1, trimming or round
// retirement changes it.

/// FNV-1a 64 over the little-endian bytes of each folded word.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xFFu;
      state *= 0x100000001b3ULL;
    }
  }
};

/// 2-5 Gaussian anchor clusters of 20-139 points, up to 39 strays, and
/// ~10% exact duplicates, shuffled so cluster members interleave.
std::vector<geo::Point> clustered_cloud(rng::Engine& e) {
  std::vector<geo::Point> points;
  const std::size_t clusters = 2 + e.uniform_index(4);
  for (std::size_t c = 0; c < clusters; ++c) {
    const geo::Point anchor{e.uniform_in(-3000.0, 3000.0),
                            e.uniform_in(-3000.0, 3000.0)};
    const double sigma = e.uniform_in(30.0, 120.0);
    const std::size_t members = 20 + e.uniform_index(120);
    for (std::size_t i = 0; i < members; ++i) {
      points.push_back(anchor + rng::gaussian_noise(e, sigma));
    }
  }
  const std::size_t strays = e.uniform_index(40);
  for (std::size_t i = 0; i < strays; ++i) {
    points.push_back({e.uniform_in(-4000.0, 4000.0),
                      e.uniform_in(-4000.0, 4000.0)});
  }
  const std::size_t duplicates = points.size() / 10;
  for (std::size_t i = 0; i < duplicates; ++i) {
    points.push_back(points[e.uniform_index(points.size())]);
  }
  for (std::size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[e.uniform_index(i)]);
  }
  return points;
}

TEST(DeobfuscationGolden, TopLocationsMatchRecordedDigest) {
  constexpr std::uint64_t kGoldenDigest = 0x8506749cc7289b55ULL;
  attack::DeobfuscationWorkspace workspace;
  Fnv1a digest;
  std::size_t locations = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    rng::Engine e(seed + 7000);
    const std::vector<geo::Point> points = clustered_cloud(e);
    attack::DeobfuscationConfig config;
    config.connectivity_threshold_m = e.uniform_in(40.0, 120.0);
    config.trim_radius_m = e.uniform_in(100.0, 400.0);
    config.top_n = 3 + seed % 3;
    for (const bool trimming : {true, false}) {
      config.enable_trimming = trimming;
      const auto inferred =
          attack::deobfuscate_top_locations(points, config, workspace);
      digest.add(inferred.size());
      for (const attack::InferredLocation& loc : inferred) {
        digest.add(std::bit_cast<std::uint64_t>(loc.location.x));
        digest.add(std::bit_cast<std::uint64_t>(loc.location.y));
        digest.add(loc.support);
      }
      locations += inferred.size();
    }
  }
  EXPECT_EQ(digest.state, kGoldenDigest)
      << "0x" << std::hex << digest.state;
  EXPECT_EQ(locations, 480u);
}

// ------------------------------------------- profile golden digest
//
// A digest of attack::build_profile's entries (count, then centroid bits
// and frequency entry by entry, in profile order) over the clustered
// clouds above and over clouds of equal-size groups, whose order rests
// on the smallest-index tie-break alone. It was recorded from the build
// that sorted each cluster, summed its centroid in ascending index order
// and ordered clusters by size desc, then first index. The labelling walk
// reproduces it through both overloads (the workspace one reused across
// clouds), and matches the all-pairs components summed member by member
// entry by entry.

/// 3-6 tight groups of one common size (1-12 points) at random anchors
/// plus a few strays, shuffled so groups interleave.
std::vector<geo::Point> equal_size_cloud(rng::Engine& e) {
  std::vector<geo::Point> points;
  const std::size_t groups = 3 + e.uniform_index(4);
  const std::size_t members = 1 + e.uniform_index(12);
  for (std::size_t g = 0; g < groups; ++g) {
    const geo::Point anchor{e.uniform_in(-5000.0, 5000.0),
                            e.uniform_in(-5000.0, 5000.0)};
    for (std::size_t i = 0; i < members; ++i) {
      points.push_back(anchor + rng::gaussian_noise(e, 3.0));
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    points.push_back({e.uniform_in(-6000.0, 6000.0),
                      e.uniform_in(-6000.0, 6000.0)});
  }
  for (std::size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[e.uniform_index(i)]);
  }
  return points;
}

TEST(ProfileGolden, EntriesMatchRecordedDigest) {
  constexpr std::uint64_t kGoldenDigest = 0x161f915b8fa1c98cULL;
  const auto fold = [](Fnv1a& digest,
                       const std::vector<attack::ProfileEntry>& entries) {
    digest.add(entries.size());
    for (const attack::ProfileEntry& entry : entries) {
      digest.add(std::bit_cast<std::uint64_t>(entry.location.x));
      digest.add(std::bit_cast<std::uint64_t>(entry.location.y));
      digest.add(entry.frequency);
    }
  };
  attack::ProfileWorkspace workspace;
  Fnv1a digest;
  Fnv1a reused_digest;
  std::size_t entries = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    rng::Engine e(seed + 9000);
    const std::vector<geo::Point> points =
        seed % 2 == 0 ? clustered_cloud(e) : equal_size_cloud(e);
    const double threshold = e.uniform_in(20.0, 80.0);
    const attack::LocationProfile profile =
        attack::build_profile(points, threshold);
    fold(digest, profile.entries());
    const std::vector<attack::ProfileEntry>& reused =
        attack::build_profile(points, threshold, workspace);
    fold(reused_digest, reused);
    entries += profile.size();

    const auto clusters =
        oracles::connected_components_bruteforce(points, threshold);
    ASSERT_EQ(reused.size(), clusters.size()) << "seed " << seed;
    for (std::size_t k = 0; k < clusters.size(); ++k) {
      const geo::Point centroid =
          oracles::cluster_centroid(points, clusters[k]);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reused[k].location.x),
                std::bit_cast<std::uint64_t>(centroid.x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reused[k].location.y),
                std::bit_cast<std::uint64_t>(centroid.y));
      EXPECT_EQ(reused[k].frequency, clusters[k].size());
    }
  }
  EXPECT_EQ(digest.state, kGoldenDigest)
      << "0x" << std::hex << digest.state;
  EXPECT_EQ(reused_digest.state, kGoldenDigest)
      << "0x" << std::hex << reused_digest.state;
  EXPECT_EQ(entries, 2094u);
}

// ------------------------------------- hot kernels vs brute-force oracles
//
// The scan and posterior kernels in simd/kernels.hpp against
// point-by-point AoS references in tests/oracles: the same hits in the
// same order, and the same bits.

class SimdAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdAgreement, RawScanKernelAgreesAtEveryAlignment) {
  rng::Engine e(GetParam() + 5000);
  constexpr std::uint32_t kN = 203;
  std::vector<geo::Point> points(kN);
  std::vector<double> xs(kN), ys(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = e.uniform_in(-100.0, 100.0);
    ys[i] = e.uniform_in(-100.0, 100.0);
    points[i] = {xs[i], ys[i]};
  }
  const geo::Point q{e.uniform_in(-100.0, 100.0),
                     e.uniform_in(-100.0, 100.0)};
  const double r2 = e.uniform_in(100.0, 10000.0);
  // A second radius lands exactly on point 101: `<=` must keep it.
  const double edge_r2 = geo::distance_squared(points[101], q);
  for (const double radius2 : {r2, edge_r2}) {
    // Sweep begin offsets so every start alignment and tail length occurs.
    for (std::uint32_t begin = 0; begin < 9; ++begin) {
      std::vector<std::uint32_t> slots(kN);
      std::vector<double> d2(kN);
      const std::size_t hits =
          simd::scan_slots_within(xs.data(), ys.data(), begin, kN, q.x, q.y,
                                  radius2, slots.data(), d2.data());
      const auto expected =
          oracles::points_within_bruteforce(points, begin, q, radius2);
      ASSERT_EQ(hits, expected.size()) << "begin " << begin;
      for (std::size_t h = 0; h < hits; ++h) {
        EXPECT_EQ(slots[h], expected[h].first);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d2[h]),
                  std::bit_cast<std::uint64_t>(expected[h].second));
      }
      if (radius2 == edge_r2) {
        EXPECT_NE(std::find(slots.begin(), slots.begin() + hits, 101u),
                  slots.begin() + hits);
      }
    }
  }
}

TEST_P(SimdAgreement, RawPosteriorKernelAgreesIncludingMax) {
  rng::Engine e(GetParam() + 6000);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{7},
                              std::size_t{64}, std::size_t{129}}) {
    std::vector<geo::Point> points(n);
    std::vector<double> xs(n), ys(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = e.uniform_in(-500.0, 500.0);
      ys[i] = e.uniform_in(-500.0, 500.0);
      points[i] = {xs[i], ys[i]};
    }
    const geo::Point mean{e.uniform_in(-500.0, 500.0),
                          e.uniform_in(-500.0, 500.0)};
    // The smallest denominator sends every density to -inf, so the max
    // falls to its -1e300 floor.
    for (const double denom : {e.uniform_in(1.0, 1e6),
                               std::numeric_limits<double>::denorm_min()}) {
      const double max_log = simd::posterior_log_densities(
          xs.data(), ys.data(), n, mean.x, mean.y, denom, out.data());
      const std::vector<double> expected =
          oracles::log_densities_bruteforce(points, mean, denom);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "n " << n << ", i " << i;
      }
      EXPECT_EQ(max_log,
                std::max(-1e300, *std::max_element(expected.begin(),
                                                   expected.end())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdAgreement,
                         ::testing::Range<std::uint64_t>(1, 13));

// --------------------------------------- efficacy flatness across n (Fig 9)

TEST(EfficacyFlatness, PosteriorSelectionKeepsEfficacyFlat) {
  // The Fig. 9 property as an invariant: from n = 2 to n = 10 the mean
  // efficacy under posterior selection moves by less than 0.08.
  const rng::Engine parent(53);
  auto mean_efficacy = [&](std::size_t n) {
    const lppm::NFoldGaussianMechanism mech(make_params(n, 1.0, 500.0));
    stats::RunningStats ae;
    for (int t = 0; t < 1500; ++t) {
      rng::Engine e = parent.split(t + n * 100000);
      const auto candidates = mech.obfuscate(e, {0, 0});
      const auto probs =
          core::selection_probabilities(candidates, mech.posterior_sigma());
      ae.add(utility::efficacy_weighted({0, 0}, candidates, probs, 5000.0));
    }
    return ae.mean();
  };
  const double at2 = mean_efficacy(2);
  const double at10 = mean_efficacy(10);
  EXPECT_NEAR(at2, at10, 0.08);
}

}  // namespace
}  // namespace privlocad
