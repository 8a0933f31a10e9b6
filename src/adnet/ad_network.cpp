#include "adnet/ad_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::adnet {
namespace {

constexpr std::int64_t kSecondsPerDay = 86400;

}  // namespace

std::size_t AdNetwork::ImpressionKeyHash::operator()(
    const ImpressionKey& k) const {
  // SplitMix-style mix of the three fields.
  std::uint64_t h = k.user * 0x9E3779B97F4A7C15ULL;
  h ^= k.advertiser + 0xBF58476D1CE4E5B9ULL + (h << 6) + (h >> 2);
  h ^= static_cast<std::uint64_t>(k.day) + 0x94D049BB133111EBULL + (h << 6) +
       (h >> 2);
  return static_cast<std::size_t>(h);
}

AdNetwork::AdNetwork(std::vector<Advertiser> advertisers,
                     std::size_t max_ads_per_request,
                     FrequencyCap frequency_cap)
    : advertisers_(std::move(advertisers)),
      max_ads_per_request_(max_ads_per_request),
      frequency_cap_(frequency_cap) {
  util::require(max_ads_per_request_ > 0,
                "max_ads_per_request must be >= 1");
  for (const Advertiser& a : advertisers_) {
    if (a.targeting == TargetingType::kRadius) {
      util::require_positive(a.targeting_radius_m, "advertiser radius");
    }
  }
  build_spatial_index();
}

void AdNetwork::build_spatial_index() {
  // Radius classes: [0, 2^k * base] with base = 250 m. A campaign of
  // radius r lands in the smallest class whose max_radius >= r, so a
  // class query at max_radius can only miss campaigns that could not
  // cover the point anyway.
  //
  // Fat campaigns (radius above kScanRadiusThreshold) cover a large share
  // of any city-scale map: grid pruning rejects almost nothing for them
  // while paying hash/indirection costs, so they go to the linear scan
  // list instead (the matching bench documents the crossover).
  constexpr double kBaseRadius = 250.0;
  constexpr double kScanRadiusThreshold = 8000.0;

  std::unordered_map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i = 0; i < advertisers_.size(); ++i) {
    const Advertiser& a = advertisers_[i];
    if (a.targeting != TargetingType::kRadius ||
        a.targeting_radius_m > kScanRadiusThreshold) {
      scan_indices_.push_back(i);
      continue;
    }
    const int cls = std::max(
        0, static_cast<int>(
               std::ceil(std::log2(a.targeting_radius_m / kBaseRadius))));
    by_class[cls].push_back(i);
  }

  for (auto& [cls, indices] : by_class) {
    RadiusClass radius_class;
    radius_class.max_radius = kBaseRadius * std::exp2(cls);
    std::vector<geo::Point> points;
    points.reserve(indices.size());
    for (const std::size_t i : indices) {
      points.push_back(advertisers_[i].business_location);
    }
    radius_class.advertiser_indices = std::move(indices);
    radius_class.index = std::make_unique<geo::GridIndex>(
        std::move(points), radius_class.max_radius);
    radius_classes_.push_back(std::move(radius_class));
  }
}

std::vector<Ad> AdNetwork::match(geo::Point reported_location,
                                 const std::string& category) const {
  std::vector<Ad> matched;
  auto consider = [&](const Advertiser& a, bool check_distance) {
    if (!category.empty() && a.category != category) return;
    bool covered = false;
    switch (a.targeting) {
      case TargetingType::kRadius:
        covered = !check_distance ||
                  geo::distance_squared(a.business_location,
                                        reported_location) <=
                      a.targeting_radius_m * a.targeting_radius_m;
        break;
      case TargetingType::kCountry:
        // Single-country simulator: a country campaign reaches everyone.
        covered = true;
        break;
    }
    if (covered) {
      matched.push_back({a.id, a.business_location, a.category, a.bid_cpm});
    }
  };

  // Radius campaigns via the per-class grids...
  for (const RadiusClass& radius_class : radius_classes_) {
    radius_class.index->for_each_within(
        reported_location, radius_class.max_radius,
        [&](std::size_t local, double) {
          consider(advertisers_[radius_class.advertiser_indices[local]],
                   /*check_distance=*/true);
        });
  }
  // ...fat-radius and country campaigns by scan (the radius branch still
  // needs its exact distance check; country ignores the flag).
  for (const std::size_t i : scan_indices_) {
    consider(advertisers_[i], /*check_distance=*/true);
  }

  const auto by_bid = [](const Ad& x, const Ad& y) {
    if (x.bid_cpm != y.bid_cpm) return x.bid_cpm > y.bid_cpm;
    return x.advertiser_id < y.advertiser_id;
  };
  // Only the top max_ads_per_request_ leave the auction; a partial sort
  // keeps the hot path O(n log k) instead of O(n log n) when thousands of
  // campaigns match a dense downtown request.
  if (matched.size() > max_ads_per_request_) {
    std::partial_sort(matched.begin(),
                      matched.begin() +
                          static_cast<std::ptrdiff_t>(max_ads_per_request_),
                      matched.end(), by_bid);
    matched.resize(max_ads_per_request_);
  } else {
    std::sort(matched.begin(), matched.end(), by_bid);
  }
  return matched;
}

std::vector<Ad> AdNetwork::handle_request(const AdRequest& request) {
  bid_log_.record(request.user_id, request.reported_location, request.time);
  std::vector<Ad> matched = match(request.reported_location,
                                  request.category);

  if (frequency_cap_.max_impressions_per_day > 0) {
    const std::int64_t day = request.time / kSecondsPerDay;
    std::erase_if(matched, [&](const Ad& ad) {
      const auto it = impressions_.find(
          {request.user_id, ad.advertiser_id, day});
      return it != impressions_.end() &&
             it->second >= frequency_cap_.max_impressions_per_day;
    });
    for (const Ad& ad : matched) {
      ++impressions_[{request.user_id, ad.advertiser_id, day}];
    }
  }
  return matched;
}

}  // namespace privlocad::adnet
