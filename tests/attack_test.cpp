// Tests for the attack module: clustering invariants, profiling, the
// Algorithm-1 de-obfuscation attack, and success-rate accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attack/clustering.hpp"
#include "attack/deobfuscation.hpp"
#include "attack/evaluation.hpp"
#include "attack/profile.hpp"
#include "lppm/planar_laplace.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "trace/synthetic.hpp"
#include "util/validation.hpp"
#include "oracles.hpp"

namespace privlocad::attack {
namespace {

// --------------------------------------------------------------- clustering

TEST(Clustering, EmptyInputYieldsNoClusters) {
  EXPECT_TRUE(connectivity_clusters({}, 50.0).empty());
}

TEST(Clustering, SingletonsWhenAllFar) {
  const std::vector<geo::Point> points{{0, 0}, {1000, 0}, {0, 1000}};
  const auto clusters = connectivity_clusters(points, 50.0);
  EXPECT_EQ(clusters.size(), 3u);
  for (const auto& c : clusters) EXPECT_EQ(c.size(), 1u);
}

TEST(Clustering, TransitiveConnectivityMergesChains) {
  // 0-40-80-120: consecutive gaps 40 < 50, so one chain cluster even
  // though endpoints are 120 apart.
  const std::vector<geo::Point> points{{0, 0}, {40, 0}, {80, 0}, {120, 0}};
  const auto clusters = connectivity_clusters(points, 50.0);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 4u);
}

TEST(Clustering, StrictThresholdExcludesExactDistance) {
  const std::vector<geo::Point> points{{0, 0}, {50, 0}};
  const auto clusters = connectivity_clusters(points, 50.0);
  EXPECT_EQ(clusters.size(), 2u);  // dist == theta is NOT connected
}

TEST(Clustering, ClustersFormAPartition) {
  rng::Engine e(1);
  std::vector<geo::Point> points;
  for (int i = 0; i < 400; ++i) {
    points.push_back({e.uniform_in(-500, 500), e.uniform_in(-500, 500)});
  }
  const auto clusters = connectivity_clusters(points, 60.0);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& c : clusters) {
    for (const std::size_t idx : c) {
      EXPECT_TRUE(seen.insert(idx).second) << "index in two clusters";
      ++total;
    }
  }
  EXPECT_EQ(total, points.size());
}

TEST(Clustering, OrderedBySizeDescending) {
  std::vector<geo::Point> points;
  for (int i = 0; i < 5; ++i) points.push_back({i * 10.0, 0.0});   // big
  for (int i = 0; i < 2; ++i) points.push_back({5000.0 + i, 0.0});  // small
  const auto clusters = connectivity_clusters(points, 50.0);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_GT(clusters[0].size(), clusters[1].size());
}

TEST(Clustering, CentroidOfCluster) {
  const std::vector<geo::Point> points{{0, 0}, {10, 0}, {20, 0}};
  const auto clusters = connectivity_clusters(points, 15.0);
  ASSERT_EQ(clusters.size(), 1u);
  const geo::Point c = oracles::cluster_centroid(points, clusters[0]);
  EXPECT_DOUBLE_EQ(c.x, 10.0);
  EXPECT_THROW(oracles::cluster_centroid(points, {}), util::InvalidArgument);
}

TEST(Clustering, RejectsNonPositiveThreshold) {
  EXPECT_THROW(connectivity_clusters({{0, 0}}, 0.0), util::InvalidArgument);
}

// ---------------------------------------------------------------- profile

TEST(Profile, BuildsFrequencyOrderedProfile) {
  std::vector<geo::Point> check_ins;
  for (int i = 0; i < 30; ++i) check_ins.push_back({0.0 + i * 0.1, 0.0});
  for (int i = 0; i < 10; ++i) check_ins.push_back({5000.0 + i * 0.1, 0.0});
  const LocationProfile profile = build_profile(check_ins);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_EQ(profile.top(0).frequency, 30u);
  EXPECT_EQ(profile.top(1).frequency, 10u);
  EXPECT_EQ(profile.total_frequency(), 40u);
  EXPECT_NEAR(profile.top(0).location.x, 1.45, 0.01);
}

TEST(Profile, EntropyMatchesEq3) {
  std::vector<geo::Point> check_ins;
  for (int i = 0; i < 50; ++i) check_ins.push_back({i * 0.01, 0.0});
  for (int i = 0; i < 50; ++i) check_ins.push_back({9000.0 + i * 0.01, 0.0});
  const LocationProfile profile = build_profile(check_ins);
  EXPECT_NEAR(profile.entropy(), std::log(2.0), 1e-9);
}

TEST(Profile, EmptyProfileBehaviour) {
  const LocationProfile profile = build_profile(std::vector<geo::Point>{});
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.total_frequency(), 0u);
  EXPECT_THROW(profile.entropy(), util::InvalidArgument);
  EXPECT_THROW(profile.top(0), util::InvalidArgument);
}

TEST(Profile, ConstructorRejectsUnsortedEntries) {
  std::vector<ProfileEntry> unsorted{{{0, 0}, 1}, {{1, 1}, 5}};
  EXPECT_THROW(LocationProfile(std::move(unsorted)), util::InvalidArgument);
}

TEST(Profile, RecoversTruthFromSyntheticUser) {
  const rng::Engine parent(2);
  trace::SyntheticConfig config;
  config.min_check_ins = 400;
  config.max_check_ins = 800;
  const trace::SyntheticUser user = trace::generate_user(parent, config, 3);
  const LocationProfile profile = build_profile(user.trace);
  ASSERT_FALSE(profile.empty());
  // The heaviest profile cluster must sit on the true top-1 anchor.
  EXPECT_LT(geo::distance(profile.top(0).location,
                          user.truth.top_locations.front()),
            25.0);
}

// ------------------------------------------------------------ deobfuscation

DeobfuscationConfig attack_config_for_laplace(
    const lppm::PlanarLaplaceMechanism& mech, std::size_t top_n) {
  DeobfuscationConfig c;
  c.trim_radius_m = mech.tail_radius(0.05);  // the paper's r_0.05
  c.connectivity_threshold_m = c.trim_radius_m / 4.0;
  c.top_n = top_n;
  return c;
}

TEST(Deobfuscation, RecoversSingleTopLocationUnderOneTimeGeoInd) {
  // The paper's core finding: per-report planar Laplace noise averages out
  // over hundreds of observations of the same spot.
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(3);
  const geo::Point home{1234.0, -987.0};
  std::vector<geo::Point> observed;
  for (int i = 0; i < 500; ++i) observed.push_back(mech.obfuscate_one(e, home));

  const auto inferred = deobfuscate_top_locations(
      observed, attack_config_for_laplace(mech, 1));
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_LT(geo::distance(inferred[0].location, home), 50.0);
  EXPECT_GT(inferred[0].support, 250u);
}

TEST(Deobfuscation, RecoversTwoTopLocations) {
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(4);
  const geo::Point home{0.0, 0.0};
  const geo::Point office{8000.0, 2000.0};  // farther than the noise scale
  std::vector<geo::Point> observed;
  for (int i = 0; i < 600; ++i) observed.push_back(mech.obfuscate_one(e, home));
  for (int i = 0; i < 300; ++i) {
    observed.push_back(mech.obfuscate_one(e, office));
  }

  const auto inferred = deobfuscate_top_locations(
      observed, attack_config_for_laplace(mech, 2));
  ASSERT_EQ(inferred.size(), 2u);
  EXPECT_LT(geo::distance(inferred[0].location, home), 60.0);
  EXPECT_LT(geo::distance(inferred[1].location, office), 80.0);
}

TEST(Deobfuscation, AccuracyImprovesWithObservationCount) {
  // Fig. 4's qualitative claim: longer observation -> smaller error.
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  const geo::Point home{0.0, 0.0};
  const DeobfuscationConfig config = attack_config_for_laplace(mech, 1);

  auto error_with = [&](int count, std::uint64_t seed) {
    rng::Engine e(seed);
    std::vector<geo::Point> observed;
    for (int i = 0; i < count; ++i) {
      observed.push_back(mech.obfuscate_one(e, home));
    }
    const auto inferred = deobfuscate_top_locations(observed, config);
    return geo::distance(inferred.at(0).location, home);
  };

  // Average over several seeds to keep the comparison stable.
  double err_small = 0.0, err_large = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    err_small += error_with(40, 100 + s);
    err_large += error_with(2000, 200 + s);
  }
  EXPECT_LT(err_large, err_small);
}

TEST(Deobfuscation, FewerLocationsThanRequestedIsGraceful) {
  const std::vector<geo::Point> tiny{{0, 0}, {1, 1}};
  DeobfuscationConfig c;
  c.top_n = 5;
  c.connectivity_threshold_m = 10.0;
  c.trim_radius_m = 10.0;
  const auto inferred = deobfuscate_top_locations(tiny, c);
  EXPECT_GE(inferred.size(), 1u);
  EXPECT_LE(inferred.size(), 5u);
}

TEST(Deobfuscation, EmptyInputYieldsNothing) {
  DeobfuscationConfig c;
  EXPECT_TRUE(deobfuscate_top_locations({}, c).empty());
}

TEST(Deobfuscation, TrimmingImprovesContaminatedCluster) {
  // A dense core at the origin with a thin chain of stragglers leaking out
  // to +x. The chain is connected (spacing < theta), so the untrimmed
  // largest-cluster centroid is dragged right; trimming at r_alpha cuts the
  // distant chain points and pulls the estimate back onto the core.
  rng::Engine e(5);
  const geo::Point center{0.0, 0.0};
  std::vector<geo::Point> observed;
  for (int i = 0; i < 300; ++i) {
    observed.push_back(center + rng::gaussian_noise(e, 60.0));
  }
  for (int i = 0; i < 40; ++i) {
    observed.push_back({40.0 + i * 20.0, 0.0});  // chain out to x = 820
  }

  DeobfuscationConfig with_trim;
  with_trim.connectivity_threshold_m = 25.0;
  with_trim.trim_radius_m = 150.0;
  with_trim.top_n = 1;
  DeobfuscationConfig no_trim = with_trim;
  no_trim.enable_trimming = false;

  const auto trimmed = deobfuscate_top_locations(observed, with_trim);
  const auto untrimmed = deobfuscate_top_locations(observed, no_trim);
  ASSERT_FALSE(trimmed.empty());
  ASSERT_FALSE(untrimmed.empty());
  EXPECT_LT(geo::distance(trimmed[0].location, center),
            geo::distance(untrimmed[0].location, center));
}

TEST(Deobfuscation, InvalidConfigRejected) {
  DeobfuscationConfig c;
  c.top_n = 0;
  EXPECT_THROW(deobfuscate_top_locations({{0, 0}}, c),
               util::InvalidArgument);
  c = DeobfuscationConfig{};
  c.trim_radius_m = -1.0;
  EXPECT_THROW(deobfuscate_top_locations({{0, 0}}, c),
               util::InvalidArgument);
}

// ------------------------------------------------ reusable attack workspace

namespace {

/// Two well-separated Laplace-noised anchors: enough structure to
/// exercise multi-round clustering, trimming, and the round retirement path.
std::vector<geo::Point> workspace_test_stream(std::uint64_t seed,
                                              int home_count,
                                              int office_count) {
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(seed);
  std::vector<geo::Point> observed;
  observed.reserve(static_cast<std::size_t>(home_count + office_count));
  for (int i = 0; i < home_count; ++i) {
    observed.push_back(mech.obfuscate_one(e, {0.0, 0.0}));
  }
  for (int i = 0; i < office_count; ++i) {
    observed.push_back(mech.obfuscate_one(e, {8000.0, 2000.0}));
  }
  return observed;
}

void expect_same_inference(const std::vector<InferredLocation>& a,
                           const std::vector<InferredLocation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].location.x, b[i].location.x);
    EXPECT_DOUBLE_EQ(a[i].location.y, b[i].location.y);
    EXPECT_EQ(a[i].support, b[i].support);
  }
}

}  // namespace

TEST(DeobfuscationWorkspace, MatchesSingleShotOverloadBitForBit) {
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  const DeobfuscationConfig config = attack_config_for_laplace(mech, 2);
  const auto observed = workspace_test_stream(11, 600, 300);

  DeobfuscationWorkspace workspace;
  expect_same_inference(
      deobfuscate_top_locations(observed, config, workspace),
      deobfuscate_top_locations(observed, config));
}

TEST(DeobfuscationWorkspace, ReuseAcrossCallsLeavesNoResidue) {
  // A workspace that has seen a LARGE input must produce the same result
  // on a small input as a fresh one: every buffer is fully re-seeded.
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  const DeobfuscationConfig config = attack_config_for_laplace(mech, 2);

  DeobfuscationWorkspace reused;
  (void)deobfuscate_top_locations(workspace_test_stream(13, 2000, 900),
                                  config, reused);

  const auto small = workspace_test_stream(17, 250, 120);
  DeobfuscationWorkspace fresh;
  expect_same_inference(deobfuscate_top_locations(small, config, reused),
                        deobfuscate_top_locations(small, config, fresh));
}

TEST(DeobfuscationWorkspace, RepeatedCallsAreIdempotent) {
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  const DeobfuscationConfig config = attack_config_for_laplace(mech, 2);
  const auto observed = workspace_test_stream(19, 500, 250);

  DeobfuscationWorkspace workspace;
  const auto first = deobfuscate_top_locations(observed, config, workspace);
  const auto second = deobfuscate_top_locations(observed, config, workspace);
  expect_same_inference(first, second);
}

TEST(DeobfuscationWorkspace, EmptyAndTinyInputs) {
  DeobfuscationConfig c;
  c.top_n = 3;
  c.connectivity_threshold_m = 10.0;
  c.trim_radius_m = 10.0;
  DeobfuscationWorkspace workspace;
  EXPECT_TRUE(deobfuscate_top_locations({}, c, workspace).empty());
  const auto tiny =
      deobfuscate_top_locations({{0.0, 0.0}, {1.0, 1.0}}, c, workspace);
  EXPECT_GE(tiny.size(), 1u);
  EXPECT_LE(tiny.size(), 3u);
}

TEST(DeobfuscationWorkspace, ZeroSupportClusterReportsMinimumSupport) {
  // Trimming with a tiny r_alpha can empty the cluster (support == 0 path):
  // two far-apart singleton "clusters" and a trim radius smaller than the
  // centroid-to-member distance do it deterministically.
  DeobfuscationConfig c;
  c.connectivity_threshold_m = 15.0;
  c.trim_radius_m = 2.0;
  c.top_n = 2;
  // One 2-point cluster whose centroid is > 2 m from both members.
  const std::vector<geo::Point> observed{{0.0, 0.0}, {10.0, 0.0},
                                         {500.0, 500.0}};
  DeobfuscationWorkspace workspace;
  const auto inferred = deobfuscate_top_locations(observed, c, workspace);
  ASSERT_EQ(inferred.size(), 2u);
  for (const InferredLocation& loc : inferred) {
    EXPECT_GE(loc.support, 1u);  // reported support is floored at 1
  }
  // The rounds must still consume the points and terminate (no livelock
  // on the empty-cluster path): nothing left for a third round even if
  // top_n were larger.
  const auto exhausted = deobfuscate_top_locations(
      observed, [&] {
        DeobfuscationConfig wide = c;
        wide.top_n = 10;
        return wide;
      }(), workspace);
  EXPECT_LE(exhausted.size(), 3u);
}

// --------------------------------------------------------------- evaluation

TEST(Evaluation, RankAlignedErrors) {
  trace::GroundTruth truth;
  truth.top_locations = {{0, 0}, {1000, 0}};
  truth.weights = {0.7, 0.2};
  const std::vector<InferredLocation> inferred{{{30, 40}, 100},
                                               {{1000, 500}, 50}};
  const UserAttackOutcome outcome = evaluate_attack(inferred, truth, 3);
  ASSERT_EQ(outcome.error_by_rank.size(), 3u);
  EXPECT_NEAR(outcome.error_by_rank[0].value(), 50.0, 1e-9);
  EXPECT_NEAR(outcome.error_by_rank[1].value(), 500.0, 1e-9);
  EXPECT_FALSE(outcome.error_by_rank[2].has_value());  // no truth rank 3
}

TEST(Evaluation, SuccessRatesAcrossThresholds) {
  SuccessRateAccumulator acc(2, {200.0, 500.0});
  UserAttackOutcome good;
  good.error_by_rank = {50.0, 450.0};
  UserAttackOutcome bad;
  bad.error_by_rank = {900.0, std::nullopt};
  acc.add(good);
  acc.add(bad);

  EXPECT_EQ(acc.users(), 2u);
  EXPECT_DOUBLE_EQ(acc.rate(0, 0), 0.5);  // top-1 within 200m: 1 of 2
  EXPECT_DOUBLE_EQ(acc.rate(0, 1), 0.5);  // top-1 within 500m
  EXPECT_DOUBLE_EQ(acc.rate(1, 0), 0.0);  // top-2 within 200m
  EXPECT_DOUBLE_EQ(acc.rate(1, 1), 0.5);  // top-2 within 500m
}

TEST(Evaluation, MissingRanksCountAsFailures) {
  SuccessRateAccumulator acc(1, {200.0});
  UserAttackOutcome missing;
  missing.error_by_rank = {std::nullopt};
  acc.add(missing);
  EXPECT_DOUBLE_EQ(acc.rate(0, 0), 0.0);
}

TEST(Evaluation, DomainErrors) {
  SuccessRateAccumulator acc(1, {200.0});
  EXPECT_THROW(acc.rate(0, 0), util::InvalidArgument);  // no users yet
  EXPECT_THROW(SuccessRateAccumulator(0, {200.0}), util::InvalidArgument);
  EXPECT_THROW(SuccessRateAccumulator(1, {}), util::InvalidArgument);
  EXPECT_THROW(SuccessRateAccumulator(1, {-5.0}), util::InvalidArgument);
  UserAttackOutcome short_outcome;  // fewer ranks than accumulator
  EXPECT_THROW(acc.add(short_outcome), util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::attack
