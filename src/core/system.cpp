#include "core/system.hpp"

namespace privlocad::core {

EdgePrivLocAd::EdgePrivLocAd(EdgeConfig config,
                             std::vector<adnet::Advertiser> advertisers)
    : edge_(config),
      network_(std::move(advertisers)),
      adnet_backoff_engine_(config.seed ^ 0xAD0E7ULL),
      adnet_degraded_total_(
          &edge_.metrics().counter(edge_metrics::kAdnetDegraded)) {}

ServedAds EdgePrivLocAd::on_lba_request(std::uint64_t user_id,
                                        geo::Point true_location,
                                        trace::Timestamp time) {
  ServedAds result;
  const ServeResult served = edge_.serve(user_id, true_location, time);
  result.outcome = served.outcome;
  result.status = served.status;
  if (!served.released()) {
    // Nothing left the edge, so there is nothing to request ads for --
    // the round ends here with the typed cause (fail private).
    return result;
  }
  result.reported = served.reported;

  // The ad-network leg is its own fault seam (the exchange can be down
  // while the edge is healthy). Retries use config.retry; once
  // exhausted the round degrades to zero ads -- the location report
  // already succeeded, so this is a pure availability loss.
  fault::FaultInjector& injector =
      edge_.config().faults != nullptr ? *edge_.config().faults
                                       : fault::FaultInjector::global();
  if (injector.enabled()) {
    const util::Status reachable = fault::retry_with_backoff(
        edge_.config().retry, adnet_backoff_engine_,
        [&injector] { return injector.check(fault::Site::kExchange); });
    if (!reachable.ok()) {
      result.ad_path_degraded = true;
      result.status = reachable;
      adnet_degraded_total_->add();
      return result;
    }
  }

  const std::vector<adnet::Ad> matched = network_.handle_request(
      {user_id, result.reported.location, time, /*category=*/{}});
  result.matched_count = matched.size();
  result.delivered = edge_.filter_ads(matched, true_location);
  return result;
}

}  // namespace privlocad::core
