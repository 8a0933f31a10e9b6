// The honest-but-curious ad network (paper Fig. 1).
//
// Receives ad requests carrying a (reported) user location, matches every
// campaign whose targeting circle covers that location, and returns the
// matched ads ordered by bid. It also appends every request to a bid log
// -- the very observation channel the longitudinal attacker exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "adnet/advertiser.hpp"
#include "adnet/bid_log.hpp"
#include "geo/grid_index.hpp"
#include "geo/point.hpp"

namespace privlocad::adnet {

/// One ad returned to a requester.
struct Ad {
  std::uint64_t advertiser_id = 0;
  geo::Point business_location;
  std::string category;
  double bid_cpm = 0.0;
};

/// An incoming request from a user/edge device. `category` restricts the
/// match to one business type (paper Fig. 1's "Business Type" attribute);
/// empty means any.
struct AdRequest {
  std::uint64_t user_id = 0;
  geo::Point reported_location;
  std::int64_t time = 0;
  std::string category;
};

/// Serving-frequency policy (paper Fig. 1's "Serving Frequency"): at most
/// `max_impressions_per_day` deliveries of one advertiser's ad to one user
/// per UTC day. Zero disables capping.
struct FrequencyCap {
  std::size_t max_impressions_per_day = 0;
};

class AdNetwork {
 public:
  /// `max_ads_per_request` caps the response size (highest bids win).
  ///
  /// Matching of radius campaigns uses a spatial index: campaigns are
  /// bucketed into power-of-two radius classes, each with a uniform grid
  /// over business locations, so a request only inspects campaigns whose
  /// class could possibly cover it. Country and fat-radius campaigns are
  /// scanned linearly (there are few). Results are identical to a full scan
  /// (`adnet_test` and the matching bench check this).
  explicit AdNetwork(std::vector<Advertiser> advertisers,
                     std::size_t max_ads_per_request = 10,
                     FrequencyCap frequency_cap = {});

  /// Matches campaigns targeting the reported location (and category, if
  /// set), applies the frequency cap, records the impressions, and logs
  /// the request into the (attacker-visible) bid log.
  std::vector<Ad> handle_request(const AdRequest& request);

  /// Pure matching without logging, capping, or impression recording.
  /// `category` empty means any business type.
  std::vector<Ad> match(geo::Point reported_location,
                        const std::string& category = {}) const;

  /// The longitudinal attacker's observation channel.
  const BidLog& bid_log() const { return bid_log_; }

  std::size_t advertiser_count() const { return advertisers_.size(); }

 private:
  /// (user, advertiser, day) -> impressions served.
  struct ImpressionKey {
    std::uint64_t user;
    std::uint64_t advertiser;
    std::int64_t day;
    bool operator==(const ImpressionKey&) const = default;
  };
  struct ImpressionKeyHash {
    std::size_t operator()(const ImpressionKey& k) const;
  };

  /// Radius campaigns bucketed by ceil-power-of-two radius; one grid per
  /// class lets a query touch only plausibly-covering campaigns.
  struct RadiusClass {
    double max_radius = 0.0;
    std::vector<std::size_t> advertiser_indices;
    std::unique_ptr<geo::GridIndex> index;
  };

  void build_spatial_index();

  std::vector<Advertiser> advertisers_;
  std::size_t max_ads_per_request_;
  FrequencyCap frequency_cap_;
  BidLog bid_log_;
  std::unordered_map<ImpressionKey, std::size_t, ImpressionKeyHash>
      impressions_;
  std::vector<RadiusClass> radius_classes_;
  std::vector<std::size_t> scan_indices_;  // country and fat-radius campaigns
};

}  // namespace privlocad::adnet
