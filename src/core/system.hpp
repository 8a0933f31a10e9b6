// Edge-PrivLocAd system façade: the full request flow of paper Fig. 5.
//
//   user true location --> edge device (manage, obfuscate, select)
//     --> ad network (match & log) --> edge device (filter) --> user
//
// This is the integration surface the examples and end-to-end tests use;
// it also exposes the ad network's bid log so the attack benches can play
// the longitudinal adversary against a *running* system rather than
// against mechanism outputs in isolation.
#pragma once

#include <cstdint>
#include <vector>

#include "adnet/ad_network.hpp"
#include "core/edge_device.hpp"

namespace privlocad::core {

/// Outcome of one LBA round trip. `reported` is meaningful only when
/// location_released(); when the serve leg dropped or failed, no ad
/// request was made and `status` carries the cause.
struct ServedAds {
  ReportedLocation reported{};      ///< what left the trusted environment
  std::size_t matched_count = 0;    ///< ads the network matched (pre-filter)
  std::vector<adnet::Ad> delivered; ///< ads after edge-side AOI filtering
  ServeOutcome outcome = ServeOutcome::kServed;  ///< the serve leg's outcome
  util::Status status{};            ///< non-ok when degraded/failed
  std::uint32_t retries = 0;        ///< serve-leg transient retries
  /// The ad-network leg exhausted its retries: the (obfuscated) location
  /// report succeeded but zero ads were delivered this round.
  bool ad_path_degraded = false;

  /// True when an (always obfuscated) location left the edge.
  bool location_released() const {
    return outcome == ServeOutcome::kServed ||
           outcome == ServeOutcome::kServedAfterRetry ||
           outcome == ServeOutcome::kDegradedCached;
  }
};

class EdgePrivLocAd {
 public:
  /// Seed, retry policy, and fault injector come from the config.
  EdgePrivLocAd(EdgeConfig config,
                std::vector<adnet::Advertiser> advertisers);

  /// Full round trip for one user request. Never throws: a dropped or
  /// failed serve leg returns a typed outcome with no ad traffic, and a
  /// faulted ad-network leg degrades to zero delivered ads
  /// (ad_path_degraded) after retries.
  ServedAds on_lba_request(std::uint64_t user_id, geo::Point true_location,
                           trace::Timestamp time);

  EdgeDevice& edge() { return edge_; }
  const EdgeDevice& edge() const { return edge_; }
  const adnet::AdNetwork& network() const { return network_; }

 private:
  EdgeDevice edge_;
  adnet::AdNetwork network_;
  /// Backoff jitter for the ad-network leg (derived from config.seed so
  /// the whole system run stays reproducible).
  rng::Engine adnet_backoff_engine_;
  /// Tallies rounds whose ad leg degraded (edge_metrics::kAdnetDegraded).
  obs::Counter* adnet_degraded_total_;
};

}  // namespace privlocad::core
