// Tests for the ad-network simulator: campaign presets, matching
// semantics, auction ordering, and the bid log.
#include <gtest/gtest.h>

#include <algorithm>

#include "adnet/ad_network.hpp"
#include "adnet/advertiser.hpp"
#include "adnet/bid_log.hpp"
#include "rng/engine.hpp"
#include "util/validation.hpp"

namespace privlocad::adnet {
namespace {

Advertiser make_advertiser(std::uint64_t id, geo::Point where, double radius,
                           double bid = 1.0) {
  Advertiser a;
  a.id = id;
  a.business_location = where;
  a.targeting_radius_m = radius;
  a.category = "test";
  a.bid_cpm = bid;
  return a;
}

// ----------------------------------------------------------------- presets

TEST(Presets, FourPlatformsMatchTable1) {
  const auto& presets = table1_presets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].platform, "Google");
  EXPECT_DOUBLE_EQ(presets[0].min_radius_m, 5000.0);
  EXPECT_DOUBLE_EQ(presets[0].max_radius_m, 65000.0);
  EXPECT_EQ(presets[3].platform, "Tencent");
  EXPECT_DOUBLE_EQ(presets[3].min_radius_m, 500.0);
  EXPECT_DOUBLE_EQ(presets[3].max_radius_m, 25000.0);
}

TEST(Presets, GeneratedCampaignsRespectPresetAndCap) {
  rng::Engine e(1);
  const PlatformPreset& tencent = table1_presets()[3];
  const auto campaigns = generate_campaigns(e, tencent, 200, 40000.0, 10000.0);
  ASSERT_EQ(campaigns.size(), 200u);
  for (const Advertiser& a : campaigns) {
    EXPECT_GE(a.targeting_radius_m, tencent.min_radius_m);
    EXPECT_LE(a.targeting_radius_m, 10000.0);
    EXPECT_LE(std::abs(a.business_location.x), 40000.0);
    EXPECT_LE(std::abs(a.business_location.y), 40000.0);
    EXPECT_FALSE(a.category.empty());
    EXPECT_GT(a.bid_cpm, 0.0);
  }
}

// ---------------------------------------------------------------- matching

TEST(AdNetwork, MatchesOnlyCoveringCampaigns) {
  AdNetwork network({make_advertiser(1, {0, 0}, 1000.0),
                     make_advertiser(2, {5000, 0}, 1000.0),
                     make_advertiser(3, {200, 0}, 5000.0)});
  const auto ads = network.match({100, 0});
  ASSERT_EQ(ads.size(), 2u);  // advertisers 1 and 3 cover (100, 0)
  EXPECT_TRUE((ads[0].advertiser_id == 1 && ads[1].advertiser_id == 3) ||
              (ads[0].advertiser_id == 3 && ads[1].advertiser_id == 1));
}

TEST(AdNetwork, BoundaryDistanceCounts) {
  AdNetwork network({make_advertiser(1, {0, 0}, 1000.0)});
  EXPECT_EQ(network.match({1000, 0}).size(), 1u);   // exactly on the rim
  EXPECT_EQ(network.match({1000.1, 0}).size(), 0u);
}

TEST(AdNetwork, HighestBidsWinWhenCapped) {
  std::vector<Advertiser> advertisers;
  for (std::uint64_t i = 0; i < 20; ++i) {
    advertisers.push_back(
        make_advertiser(i, {0, 0}, 10000.0, static_cast<double>(i)));
  }
  AdNetwork network(std::move(advertisers), 5);
  const auto ads = network.match({0, 0});
  ASSERT_EQ(ads.size(), 5u);
  for (std::size_t i = 0; i < ads.size(); ++i) {
    EXPECT_DOUBLE_EQ(ads[i].bid_cpm, static_cast<double>(19 - i));
  }
}

TEST(AdNetwork, TieBreaksById) {
  AdNetwork network({make_advertiser(7, {0, 0}, 1000.0, 2.0),
                     make_advertiser(3, {0, 0}, 1000.0, 2.0)});
  const auto ads = network.match({0, 0});
  ASSERT_EQ(ads.size(), 2u);
  EXPECT_EQ(ads[0].advertiser_id, 3u);
}

TEST(AdNetwork, RejectsBadConstruction) {
  EXPECT_THROW(AdNetwork({make_advertiser(1, {0, 0}, -5.0)}),
               util::InvalidArgument);
  EXPECT_THROW(AdNetwork({}, 0), util::InvalidArgument);
}

TEST(AdNetwork, IndexedMatchingAgreesWithBruteForce) {
  // The spatial index must be a pure optimization: identical results to a
  // direct scan over every advertiser, across a random workload.
  rng::Engine e(9);
  const auto campaigns =
      generate_campaigns(e, table1_presets()[3], 500, 40000.0, 25000.0);
  AdNetwork network(campaigns, /*max_ads_per_request=*/1000);

  for (int trial = 0; trial < 50; ++trial) {
    const geo::Point where{e.uniform_in(-50000, 50000),
                           e.uniform_in(-50000, 50000)};
    const auto indexed = network.match(where);

    std::vector<std::uint64_t> brute;
    for (const Advertiser& a : campaigns) {
      if (geo::distance(a.business_location, where) <=
          a.targeting_radius_m) {
        brute.push_back(a.id);
      }
    }
    ASSERT_EQ(indexed.size(), brute.size()) << "trial " << trial;
    std::vector<std::uint64_t> indexed_ids;
    for (const Ad& ad : indexed) indexed_ids.push_back(ad.advertiser_id);
    std::sort(indexed_ids.begin(), indexed_ids.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(indexed_ids, brute);
  }
}

// -------------------------------------------------------- targeting types

TEST(Targeting, CountryCampaignMatchesEverywhere) {
  Advertiser national = make_advertiser(1, {0, 0}, 1.0);
  national.targeting = TargetingType::kCountry;

  AdNetwork network({national});
  EXPECT_EQ(network.match({0, 0}).size(), 1u);
  EXPECT_EQ(network.match({40000, -40000}).size(), 1u);
}

TEST(Targeting, MixedCampaignTypesCoexist) {
  // An indexed radius campaign, a fat one past the 8 km scan threshold,
  // and a country campaign.
  const Advertiser radius = make_advertiser(1, {0, 0}, 1000.0);
  const Advertiser fat = make_advertiser(2, {20000, 0}, 9000.0);
  Advertiser national = make_advertiser(3, {0, 0}, 1.0);
  national.targeting = TargetingType::kCountry;

  AdNetwork network({radius, fat, national});
  // Near the origin: radius + country.
  EXPECT_EQ(network.match({100, 100}).size(), 2u);
  // Inside the fat campaign: fat radius + country.
  EXPECT_EQ(network.match({20000, 1000}).size(), 2u);
  // Far from both: country only.
  EXPECT_EQ(network.match({-30000, 0}).size(), 1u);
}

// ----------------------------------------------------------------- bid log

TEST(BidLog, RecordsPerUserInOrder) {
  BidLog log;
  log.record(1, {0, 0}, 100);
  log.record(2, {5, 5}, 150);
  log.record(1, {1, 1}, 200);

  EXPECT_EQ(log.total_requests(), 3u);
  EXPECT_EQ(log.user_count(), 2u);
  const auto& user1 = log.requests_for(1);
  ASSERT_EQ(user1.size(), 2u);
  EXPECT_EQ(user1[0].time, 100);
  EXPECT_EQ(user1[1].time, 200);
  EXPECT_TRUE(log.requests_for(99).empty());
}

TEST(BidLog, PositionsMatchRequests) {
  BidLog log;
  log.record(1, {3, 4}, 0);
  log.record(1, {5, 6}, 1);
  const auto positions = log.positions_for(1);
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[1], (geo::Point{5, 6}));
  EXPECT_TRUE(log.positions_for(42).empty());
}

// ------------------------------------------- category & frequency capping

TEST(AdNetwork, CategoryFilterRestrictsMatches) {
  Advertiser food = make_advertiser(1, {0, 0}, 5000.0);
  food.category = "restaurant";
  Advertiser gym = make_advertiser(2, {0, 0}, 5000.0);
  gym.category = "fitness";
  AdNetwork network({food, gym});

  EXPECT_EQ(network.match({0, 0}).size(), 2u);  // empty = any category
  const auto only_food = network.match({0, 0}, "restaurant");
  ASSERT_EQ(only_food.size(), 1u);
  EXPECT_EQ(only_food[0].advertiser_id, 1u);
  EXPECT_TRUE(network.match({0, 0}, "entertainment").empty());
}

TEST(AdNetwork, FrequencyCapLimitsDailyImpressions) {
  AdNetwork network({make_advertiser(1, {0, 0}, 5000.0)}, 10,
                    FrequencyCap{2});
  const std::int64_t t0 = 1000;
  EXPECT_EQ(network.handle_request({5, {0, 0}, t0, {}}).size(), 1u);
  EXPECT_EQ(network.handle_request({5, {0, 0}, t0 + 1, {}}).size(), 1u);
  // Third request the same day: capped out.
  EXPECT_EQ(network.handle_request({5, {0, 0}, t0 + 2, {}}).size(), 0u);
}

TEST(AdNetwork, FrequencyCapResetsNextDay) {
  AdNetwork network({make_advertiser(1, {0, 0}, 5000.0)}, 10,
                    FrequencyCap{1});
  const std::int64_t day0 = 1000;
  const std::int64_t day1 = day0 + 86400;
  EXPECT_EQ(network.handle_request({5, {0, 0}, day0, {}}).size(), 1u);
  EXPECT_EQ(network.handle_request({5, {0, 0}, day0 + 10, {}}).size(), 0u);
  EXPECT_EQ(network.handle_request({5, {0, 0}, day1, {}}).size(), 1u);
  // Day 1's single impression already uses up that day's cap.
  EXPECT_EQ(network.handle_request({5, {0, 0}, day1 + 10, {}}).size(), 0u);
}

TEST(AdNetwork, FrequencyCapIsPerUserPerAdvertiser) {
  AdNetwork network({make_advertiser(1, {0, 0}, 5000.0),
                     make_advertiser(2, {0, 0}, 5000.0)},
                    10, FrequencyCap{1});
  EXPECT_EQ(network.handle_request({5, {0, 0}, 0, {}}).size(), 2u);
  // User 5 is capped on both advertisers; user 6 is fresh.
  EXPECT_EQ(network.handle_request({5, {0, 0}, 1, {}}).size(), 0u);
  EXPECT_EQ(network.handle_request({6, {0, 0}, 2, {}}).size(), 2u);
}

TEST(AdNetwork, ZeroCapMeansUnlimited) {
  AdNetwork network({make_advertiser(1, {0, 0}, 5000.0)});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(network.handle_request({5, {0, 0}, i, {}}).size(), 1u);
  }
}

TEST(AdNetwork, HandleRequestLogsTheReportedLocation) {
  AdNetwork network({make_advertiser(1, {0, 0}, 1000.0)});
  network.handle_request({77, {250, 0}, 12345, {}});
  network.handle_request({77, {260, 0}, 12346, {}});
  EXPECT_EQ(network.bid_log().user_count(), 1u);
  const auto positions = network.bid_log().positions_for(77);
  ASSERT_EQ(positions.size(), 2u);
  EXPECT_EQ(positions[0], (geo::Point{250, 0}));
}

}  // namespace
}  // namespace privlocad::adnet
