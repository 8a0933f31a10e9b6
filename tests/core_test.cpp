// Tests for the core Edge-PrivLocAd modules: eta-frequent sets, location
// management and the permanent obfuscation table (both held by the
// UserArena), posterior output selection, and the edge device's reporting
// logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "core/edge_device.hpp"
#include "core/eta_frequent.hpp"
#include "core/output_selection.hpp"
#include "core/user_arena.hpp"
#include "lppm/gaussian.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "util/validation.hpp"

namespace privlocad::core {
namespace {

attack::LocationProfile make_profile(
    std::vector<std::pair<geo::Point, std::uint64_t>> raw) {
  std::vector<attack::ProfileEntry> entries;
  for (const auto& [p, f] : raw) entries.push_back({p, f});
  return attack::LocationProfile(std::move(entries));
}

lppm::BoundedGeoIndParams paper_params(std::size_t n = 10) {
  lppm::BoundedGeoIndParams p;
  p.radius_m = 500.0;
  p.epsilon = 1.0;
  p.delta = 0.01;
  p.n = n;
  return p;
}

// ------------------------------------------------------------ eta-frequent

TEST(EtaFrequent, MinimalPrefixReachingEta) {
  const auto profile = make_profile({{{0, 0}, 50}, {{1, 1}, 30}, {{2, 2}, 20}});
  EXPECT_EQ(eta_frequent_set(profile, 50).size(), 1u);
  EXPECT_EQ(eta_frequent_set(profile, 51).size(), 2u);
  EXPECT_EQ(eta_frequent_set(profile, 80).size(), 2u);
  EXPECT_EQ(eta_frequent_set(profile, 81).size(), 3u);
}

TEST(EtaFrequent, EtaBeyondTotalReturnsWholeProfile) {
  const auto profile = make_profile({{{0, 0}, 5}, {{1, 1}, 3}});
  EXPECT_EQ(eta_frequent_set(profile, 100).size(), 2u);
}

TEST(EtaFrequent, FractionVariantMatchesAbsolute) {
  const auto profile = make_profile({{{0, 0}, 70}, {{1, 1}, 30}});
  EXPECT_EQ(eta_frequent_set_fraction(profile, 0.7).size(), 1u);
  EXPECT_EQ(eta_frequent_set_fraction(profile, 0.71).size(), 2u);
  EXPECT_EQ(eta_frequent_set_fraction(profile, 1.0).size(), 2u);
}

TEST(EtaFrequent, MinimalityProperty) {
  // Removing the last element of the eta set must drop below eta.
  const auto profile =
      make_profile({{{0, 0}, 40}, {{1, 1}, 35}, {{2, 2}, 15}, {{3, 3}, 10}});
  for (const std::uint64_t eta : {1u, 40u, 41u, 75u, 76u, 90u, 100u}) {
    const auto set = eta_frequent_set(profile, eta);
    std::uint64_t sum = 0;
    for (const auto& e : set) sum += e.frequency;
    EXPECT_GE(sum, std::min<std::uint64_t>(eta, 100u));
    if (set.size() > 1) {
      EXPECT_LT(sum - set.back().frequency, eta);
    }
  }
}

TEST(EtaFrequent, DomainErrors) {
  const auto profile = make_profile({{{0, 0}, 10}});
  EXPECT_THROW(eta_frequent_set(profile, 0), util::InvalidArgument);
  EXPECT_THROW(eta_frequent_set_fraction(profile, 0.0),
               util::InvalidArgument);
  EXPECT_THROW(eta_frequent_set_fraction(profile, 1.5),
               util::InvalidArgument);
  const attack::LocationProfile empty;
  EXPECT_THROW(eta_frequent_set_fraction(empty, 0.5), util::InvalidArgument);
}

// ------------------------------------------------------ location management
//
// Paper Section V-B on the UserArena: one user's row holds the pending
// check-in window, the rebuilt profile and its top-location set.

LocationManagementConfig fast_window() {
  LocationManagementConfig c;
  c.window_seconds = 1000;
  c.min_top_frequency = 2;
  return c;
}

/// A fresh arena holding one user's row.
struct ArenaUser {
  UserArena arena{rng::Engine(1)};
  UserArena::Row row = arena.find_or_create(1);

  bool record(geo::Point p, trace::Timestamp t,
              const LocationManagementConfig& c = fast_window()) {
    return arena.record(row, p, t, c);
  }
  void rebuild_now(const LocationManagementConfig& c = fast_window()) {
    arena.rebuild_now(row, c);
  }
  std::size_t tops() const { return arena.top_size(row); }
  attack::ProfileEntry top(std::size_t i) const {
    return arena.top_entry(row, i);
  }
};

TEST(LocationManager, NoTopLocationsBeforeFirstRebuild) {
  ArenaUser user;
  user.record({0, 0}, 0);
  EXPECT_EQ(user.tops(), 0u);
  EXPECT_FALSE(user.arena.has_profile(user.row));
  EXPECT_EQ(user.arena.pending_check_ins(user.row), 1u);
}

TEST(LocationManager, WindowCrossingTriggersRebuild) {
  ArenaUser user;
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(user.record({0.0 + i * 0.1, 0.0}, i));
  }
  // Crossing the 1000-second boundary rebuilds from the completed window.
  EXPECT_TRUE(user.record({5000, 5000}, 2000));
  ASSERT_GT(user.tops(), 0u);
  EXPECT_NEAR(user.top(0).location.x, 0.45, 0.01);
  // The triggering check-in.
  EXPECT_EQ(user.arena.pending_check_ins(user.row), 1u);
}

TEST(LocationManager, RebuildNowFlushesPending) {
  ArenaUser user;
  for (int i = 0; i < 5; ++i) user.record({0, 0}, i);
  user.rebuild_now();
  ASSERT_EQ(user.tops(), 1u);
  EXPECT_EQ(user.top(0).frequency, 5u);
  EXPECT_EQ(user.arena.pending_check_ins(user.row), 0u);
}

TEST(LocationManager, MinTopFrequencyFiltersOneOffs) {
  LocationManagementConfig c = fast_window();
  c.eta_fraction = 1.0;  // would otherwise include everything
  c.min_top_frequency = 3;
  ArenaUser user;
  for (int i = 0; i < 5; ++i) user.record({0, 0}, i, c);
  user.record({9000, 9000}, 6, c);  // single one-off
  user.rebuild_now(c);
  ASSERT_EQ(user.tops(), 1u);
  EXPECT_EQ(user.top(0).frequency, 5u);
}

TEST(LocationManager, EtaFractionControlsSetSize) {
  LocationManagementConfig c = fast_window();
  c.eta_fraction = 0.6;
  c.min_top_frequency = 1;
  ArenaUser user;
  for (int i = 0; i < 60; ++i) user.record({0, 0}, i, c);
  for (int i = 0; i < 40; ++i) user.record({8000, 0}, 100 + i, c);
  user.rebuild_now(c);
  EXPECT_EQ(user.tops(), 1u);  // top-1 covers 60% >= eta
}

TEST(LocationManager, SparseWindowDoesNotWipeTopLocations) {
  LocationManagementConfig c = fast_window();
  c.min_window_check_ins = 10;
  ArenaUser user;
  for (int i = 0; i < 20; ++i) user.record({0, 0}, i, c);
  user.rebuild_now(c);
  ASSERT_EQ(user.tops(), 1u);

  // One straggler check-in crosses the next window boundary: with the
  // guard it must NOT trigger a rebuild that erases the top set.
  EXPECT_FALSE(user.record({0, 0}, 5000, c));
  EXPECT_EQ(user.tops(), 1u);
  // Once enough check-ins accumulate past the boundary, the rebuild runs.
  bool rebuilt = false;
  for (int i = 1; i < 15; ++i) {
    rebuilt = user.record({0, 0}, 5000 + 2000 + i, c) || rebuilt;
  }
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(user.tops(), 1u);
}

TEST(LocationManager, InvalidConfigRejected) {
  EdgeConfig c;
  c.management = fast_window();
  c.management.window_seconds = 0;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
  c.management = fast_window();
  c.management.eta_fraction = 0.0;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
}

TEST(LocationManager, ProfilingThresholdFlooredAtOneCentimetre) {
  // The threshold is the rebuild's grid cell size: below 1 cm a plane
  // coordinate's cell index no longer fits int32.
  EdgeConfig c;
  c.management = fast_window();
  c.management.profiling_threshold_m = 1e-6;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
  EXPECT_THROW(EdgeDevice{c}, util::InvalidArgument);
  c.management.profiling_threshold_m = 0.009;
  EXPECT_THROW(c.validate(), util::InvalidArgument);
  c.management.profiling_threshold_m = 0.01;
  EXPECT_NO_THROW(c.validate());
}

// -------------------------------------------------------- obfuscation table
//
// Paper Section V-C on the UserArena: each top location maps to a
// PERMANENT candidate set, matched by proximity (100 m here) because top
// centroids drift between windows.

constexpr double kTableRadiusM = 100.0;

/// The serve path's lookup-or-generate step: the index of the entry
/// matching `top`, generating it through `mech` on first sight.
std::size_t candidates_for(ArenaUser& user, rng::Engine& engine,
                           const lppm::Mechanism& mech, geo::Point top) {
  const std::int64_t found =
      user.arena.find_entry(user.row, top, kTableRadiusM);
  if (found >= 0) return static_cast<std::size_t>(found);
  return user.arena.add_entry(user.row, top, mech, engine);
}

std::vector<geo::Point> points_of(simd::PointSpan span) {
  std::vector<geo::Point> points;
  for (std::size_t i = 0; i < span.size; ++i) {
    points.push_back({span.xs[i], span.ys[i]});
  }
  return points;
}

TEST(ObfuscationTable, GeneratesOnceAndReplays) {
  ArenaUser user;
  const lppm::NFoldGaussianMechanism mech(paper_params(5));
  rng::Engine e(1);

  const std::size_t first = candidates_for(user, e, mech, {0, 0});
  const std::vector<geo::Point> snapshot =
      points_of(user.arena.entry_candidates(user.row, first));
  ASSERT_EQ(snapshot.size(), 5u);

  // Same location -> identical (permanent) candidates, no regeneration.
  const std::size_t again = candidates_for(user, e, mech, {0, 0});
  EXPECT_EQ(points_of(user.arena.entry_candidates(user.row, again)),
            snapshot);
  EXPECT_EQ(user.arena.entry_count(user.row), 1u);
}

TEST(ObfuscationTable, NearbyDriftReusesEntry) {
  ArenaUser user;
  const lppm::NFoldGaussianMechanism mech(paper_params(3));
  rng::Engine e(2);
  const std::size_t original = candidates_for(user, e, mech, {0, 0});
  const std::vector<geo::Point> snapshot =
      points_of(user.arena.entry_candidates(user.row, original));
  // A centroid drifted 50 m (inside the match radius) hits the same entry.
  const std::size_t drifted = candidates_for(user, e, mech, {50, 0});
  EXPECT_EQ(user.arena.entry_count(user.row), 1u);
  EXPECT_EQ(points_of(user.arena.entry_candidates(user.row, drifted))[0],
            snapshot[0]);
}

TEST(ObfuscationTable, FarLocationCreatesNewEntry) {
  ArenaUser user;
  const lppm::NFoldGaussianMechanism mech(paper_params(3));
  rng::Engine e(3);
  candidates_for(user, e, mech, {0, 0});
  candidates_for(user, e, mech, {5000, 0});
  EXPECT_EQ(user.arena.entry_count(user.row), 2u);
}

TEST(ObfuscationTable, LookupWithoutGeneration) {
  ArenaUser user;
  const lppm::NFoldGaussianMechanism mech(paper_params(3));
  rng::Engine e(4);
  EXPECT_LT(user.arena.find_entry(user.row, {0, 0}, kTableRadiusM), 0);
  candidates_for(user, e, mech, {0, 0});
  EXPECT_GE(user.arena.find_entry(user.row, {0, 0}, kTableRadiusM), 0);
  EXPECT_GE(user.arena.find_entry(user.row, {99, 0}, kTableRadiusM), 0);
  EXPECT_LT(user.arena.find_entry(user.row, {500, 0}, kTableRadiusM), 0);
  EXPECT_EQ(user.arena.entry_count(user.row), 1u);

  EdgeConfig zero_radius;
  zero_radius.table_match_radius_m = 0.0;
  EXPECT_THROW(zero_radius.validate(), util::InvalidArgument);
}

// --------------------------------------------------------- output selection

TEST(OutputSelection, ProbabilitiesSumToOneAndFavorCentralCandidates) {
  const std::vector<geo::Point> candidates{
      {0, 0}, {100, 0}, {5000, 0}, {-80, 30}};
  const auto probs = selection_probabilities(candidates, 1000.0);
  ASSERT_EQ(probs.size(), 4u);
  double sum = 0.0;
  for (const double p : probs) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // The candidate nearest the centroid gets the largest weight; the
  // 5 km outlier the smallest.
  const geo::Point mean = geo::centroid(candidates);
  std::size_t nearest = 0, farthest = 0;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (geo::distance(candidates[i], mean) <
        geo::distance(candidates[nearest], mean)) {
      nearest = i;
    }
    if (geo::distance(candidates[i], mean) >
        geo::distance(candidates[farthest], mean)) {
      farthest = i;
    }
  }
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_LE(probs[i], probs[nearest] + 1e-15);
    EXPECT_GE(probs[i], probs[farthest] - 1e-15);
  }
}

TEST(OutputSelection, SingleCandidateIsCertain) {
  const auto probs = selection_probabilities({{7, 7}}, 500.0);
  ASSERT_EQ(probs.size(), 1u);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
}

TEST(OutputSelection, EmpiricalSamplingMatchesProbabilities) {
  const std::vector<geo::Point> candidates{{0, 0}, {2000, 0}, {-300, 400}};
  const double sigma = 800.0;
  const auto probs = selection_probabilities(candidates, sigma);

  rng::Engine e(5);
  std::map<std::size_t, int> counts;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    ++counts[select_candidate(e, candidates, sigma)];
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kN, probs[i], 0.01);
  }
}

TEST(OutputSelection, NumericallyStableForTinySigma) {
  // Distances >> sigma underflow exp(); the log-shift must keep this sane.
  const std::vector<geo::Point> candidates{{0, 0}, {1e7, 0}};
  const auto probs = selection_probabilities(candidates, 1.0);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(probs[0]));
}

TEST(OutputSelection, DomainErrors) {
  EXPECT_THROW(selection_probabilities(std::vector<geo::Point>{}, 1.0),
               util::InvalidArgument);
  EXPECT_THROW(selection_probabilities(simd::PointSpan{}, 1.0),
               util::InvalidArgument);
  EXPECT_THROW(selection_probabilities({{0, 0}}, 0.0),
               util::InvalidArgument);
}

// -------------------------------------------------------------- edge device

/// The location one serve() call released; a request that released
/// nothing fails the calling test.
ReportedLocation served_location(const ServeResult& result) {
  EXPECT_TRUE(result.released()) << result.status.to_string();
  return result.reported;
}

EdgeConfig fast_edge_config() {
  EdgeConfig c;
  c.top_params = paper_params(10);
  c.management.window_seconds = 1000;
  c.management.min_top_frequency = 2;
  return c;
}

TEST(EdgeDevice, NomadicBeforeProfileExists) {
  EdgeDevice edge(fast_edge_config().with_seed(42));
  const ReportedLocation r = served_location(edge.serve(1, {0, 0}, 0));
  EXPECT_EQ(r.kind, ReportKind::kNomadic);
}

TEST(EdgeDevice, OffPlaneCoordinatesFailTypedAndTouchNoState) {
  // A location that is no place -- non-finite, or farther than any point
  // on Earth projects -- is a typed kInvalidArgument failure. It must not
  // be "served": at 1e300 the noise is absorbed and the release would be
  // the raw coordinate. It creates no user, spends no privacy, and leaves
  // the user's RNG stream untouched.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<geo::Point> hostile{
      {kInf, 1e300}, {kNan, 0.0},         {0.0, kNan},
      {-kInf, 0.0},  {0.0, kInf},         {1e300, 0.0},
      {2.1e7 + 1.0, 0.0}, {0.0, -2.1e7 - 1.0}};
  EdgeDevice edge(fast_edge_config().with_seed(42));
  for (const geo::Point p : hostile) {
    const ServeResult r = edge.serve(8, p, 0);
    EXPECT_EQ(r.outcome, ServeOutcome::kFailed);
    EXPECT_EQ(r.status.code(), util::ErrorCode::kInvalidArgument);
    EXPECT_FALSE(r.released());
  }
  EXPECT_EQ(edge.user_count(), 0u);
  EXPECT_EQ(edge.accountant().spend_for(8).releases, 0u);
  EXPECT_EQ(edge.telemetry().serve_failed, hostile.size());
  EXPECT_EQ(edge.telemetry().requests, hostile.size());

  // The rim of the plane is still a place, and the user's valid requests
  // are bit-identical to a device that never saw the hostile ones.
  EdgeDevice fresh(fast_edge_config().with_seed(42));
  for (const geo::Point p :
       {geo::Point{0.0, 0.0}, geo::Point{2.1e7, -2.1e7}}) {
    const ServeResult a = edge.serve(8, p, 1);
    const ServeResult b = fresh.serve(8, p, 1);
    ASSERT_TRUE(a.released());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.reported.location.x),
              std::bit_cast<std::uint64_t>(b.reported.location.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.reported.location.y),
              std::bit_cast<std::uint64_t>(b.reported.location.y));
  }
}

TEST(EdgeDevice, TopLocationReportsReplayFrozenCandidates) {
  EdgeDevice edge(fast_edge_config().with_seed(42));
  const geo::Point home{100.0, 200.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  edge.import_history(1, history);

  // All top-location reports must come from the same frozen candidate set.
  std::set<std::pair<double, double>> reported;
  for (int i = 0; i < 200; ++i) {
    const ReportedLocation r =
        served_location(edge.serve(1, home, 2000 + i));
    ASSERT_EQ(r.kind, ReportKind::kTopLocation);
    reported.insert({r.location.x, r.location.y});
  }
  EXPECT_LE(reported.size(), 10u);  // at most n distinct points, ever
}

TEST(EdgeDevice, ImportTailKeepsTopSetAndFrozenEntry) {
  // A window's worth of check-ins at home, then (after the home entry is
  // frozen) a tail import of 5 check-ins elsewhere: fewer than
  // min_window_check_ins, so it must not rebuild the profile and drop
  // home from the top set.
  const geo::Point home{100.0, 200.0};
  const geo::Point elsewhere{3000.0, 0.0};
  trace::UserTrace window;
  window.user_id = 1;
  for (int i = 0; i < 30; ++i) window.check_ins.push_back({home, i * 30});
  trace::UserTrace tail;
  tail.user_id = 1;
  for (int i = 0; i < 5; ++i) tail.check_ins.push_back({elsewhere, 910 + i});
  ASSERT_LT(tail.check_ins.size() + 1,
            fast_edge_config().management.min_window_check_ins);

  // A twin that never sees the tail gives home's recorded candidates:
  // the entry is drawn at the first serve, from the same stream.
  EdgeDevice twin(fast_edge_config().with_seed(42));
  twin.import_history(1, window);
  std::set<std::pair<double, double>> candidates;
  for (int i = 0; i < 200; ++i) {
    const ReportedLocation r = served_location(twin.serve(1, home, 900 + i));
    ASSERT_EQ(r.kind, ReportKind::kTopLocation);
    candidates.insert({r.location.x, r.location.y});
  }

  EdgeDevice device(fast_edge_config().with_seed(42));
  device.import_history(1, window);
  const ReportedLocation first =
      served_location(device.serve(1, home, 900));
  ASSERT_EQ(first.kind, ReportKind::kTopLocation);
  device.import_history(1, tail);

  for (int i = 0; i < 50; ++i) {
    const ReportedLocation r =
        served_location(device.serve(1, home, 920 + i));
    ASSERT_EQ(r.kind, ReportKind::kTopLocation) << "request " << i;
    EXPECT_TRUE(candidates.contains({r.location.x, r.location.y}))
        << "request " << i;
  }
  // Replays are post-processing: still the one charge of the first sight.
  EXPECT_EQ(device.accountant().spend_for(1).releases, 1u);
}

TEST(EdgeDevice, FarCheckInIsNomadic) {
  EdgeDevice edge(fast_edge_config().with_seed(42));
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  edge.import_history(1, history);

  const ReportedLocation r =
      served_location(edge.serve(1, {30000.0, 30000.0}, 5000));
  EXPECT_EQ(r.kind, ReportKind::kNomadic);
}

TEST(EdgeDevice, FilterAdsKeepsOnlyAoi) {
  EdgeDevice edge(fast_edge_config().with_seed(42));
  std::vector<adnet::Ad> ads{
      {1, {1000, 0}, "a", 1.0},          // inside 5 km AOI
      {2, {20000, 0}, "b", 1.0},         // outside
      {3, {0, 4999}, "c", 1.0},          // inside
  };
  const auto kept = edge.filter_ads(ads, {0, 0});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].advertiser_id, 1u);
  EXPECT_EQ(kept[1].advertiser_id, 3u);
}

TEST(EdgeDevice, UsersAreIsolated) {
  EdgeDevice edge(fast_edge_config().with_seed(42));
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  edge.import_history(1, history);

  // User 2 has no profile: same location reports nomadically.
  const ReportedLocation r = served_location(edge.serve(2, home, 0));
  EXPECT_EQ(r.kind, ReportKind::kNomadic);
  EXPECT_EQ(edge.user_count(), 2u);
}

TEST(EdgeDevice, AccountantChargesOncePerTopLocation) {
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});

  EdgeDevice device(fast_edge_config().with_seed(42));
  device.import_history(1, history);
  for (int i = 0; i < 100; ++i) {
    const ReportedLocation r =
        served_location(device.serve(1, home, 2000 + i));
    ASSERT_EQ(r.kind, ReportKind::kTopLocation);
  }
  // One permanent charge at (eps=1, delta=0.01), not 100 of them.
  const lppm::PrivacySpend spend = device.accountant().spend_for(1);
  EXPECT_EQ(spend.releases, 1u);
  EXPECT_DOUBLE_EQ(spend.basic_epsilon, 1.0);
  EXPECT_DOUBLE_EQ(spend.basic_delta, 0.01);
}

TEST(EdgeDevice, AccountantChargesEveryNomadicRelease) {
  EdgeDevice device(fast_edge_config().with_seed(42));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(device.serve(2, {i * 20000.0, 0.0}, i).released());
  }
  const lppm::PrivacySpend spend = device.accountant().spend_for(2);
  EXPECT_EQ(spend.releases, 10u);
  EXPECT_NEAR(spend.basic_epsilon, 10.0 * std::log(4.0), 1e-9);
}

TEST(EdgeDevice, PersonalizedPrivacyGovernsNewTables) {
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});

  EdgeDevice device(fast_edge_config().with_seed(42));
  // Stricter personal setting before any table exists.
  lppm::BoundedGeoIndParams strict = paper_params(10);
  strict.epsilon = 0.5;
  device.set_user_privacy(1, strict);
  EXPECT_DOUBLE_EQ(device.user_privacy(1).epsilon, 0.5);

  device.import_history(1, history);
  EXPECT_TRUE(device.serve(1, home, 2000).released());
  // The accountant charged at the PERSONAL epsilon, not the device's.
  const lppm::PrivacySpend spend = device.accountant().spend_for(1);
  EXPECT_DOUBLE_EQ(spend.basic_epsilon, 0.5);
}

TEST(EdgeDevice, PersonalizedPrivacyDefaultsToDeviceConfig) {
  EdgeDevice device(fast_edge_config().with_seed(42));
  EXPECT_DOUBLE_EQ(device.user_privacy(9).epsilon,
                   fast_edge_config().top_params.epsilon);
}

TEST(EdgeDevice, PersonalizedPrivacyValidatesParams) {
  EdgeDevice device(fast_edge_config().with_seed(42));
  lppm::BoundedGeoIndParams bad = paper_params(10);
  bad.epsilon = -1.0;
  EXPECT_THROW(device.set_user_privacy(1, bad), util::InvalidArgument);
}

TEST(EdgeDevice, FrozenTablesSurvivePrivacyChanges) {
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});

  EdgeDevice device(fast_edge_config().with_seed(42));
  device.import_history(1, history);
  const ReportedLocation before =
      served_location(device.serve(1, home, 2000));
  ASSERT_EQ(before.kind, ReportKind::kTopLocation);

  // Changing the personal level must NOT regenerate the frozen set.
  lppm::BoundedGeoIndParams loose = paper_params(10);
  loose.epsilon = 1.5;
  device.set_user_privacy(1, loose);
  std::set<std::pair<double, double>> reported;
  reported.insert({before.location.x, before.location.y});
  for (int i = 0; i < 100; ++i) {
    const ReportedLocation r =
        served_location(device.serve(1, home, 3000 + i));
    reported.insert({r.location.x, r.location.y});
  }
  EXPECT_LE(reported.size(), 10u);  // still the original n candidates
  // And no second privacy charge was recorded.
  EXPECT_EQ(device.accountant().spend_for(1).releases, 1u);
}

TEST(EdgeDevice, RiskAssessmentTracksUserBehaviour) {
  EdgeDevice device(fast_edge_config().with_seed(42));
  // Unknown user: low risk.
  EXPECT_EQ(device.assess_user_risk(99).level, RiskLevel::kLow);

  // A concentrated heavy user becomes high risk.
  const geo::Point home{0.0, 0.0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 1500; ++i) history.check_ins.push_back({home, i});
  device.import_history(1, history);
  const RiskAssessment risky = device.assess_user_risk(1);
  EXPECT_EQ(risky.level, RiskLevel::kHigh);
  EXPECT_GT(risky.entropy_signal, 0.9);
  EXPECT_FALSE(risky.recommendation.empty());
}

}  // namespace
}  // namespace privlocad::core
