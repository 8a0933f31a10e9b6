#include "core/telemetry.hpp"

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace privlocad::core {

EdgeTelemetry EdgeTelemetry::from_registry(
    const obs::MetricsRegistry& registry) {
  EdgeTelemetry t;
  t.top_reports = registry.counter_value(edge_metrics::kTopReports);
  t.nomadic_reports = registry.counter_value(edge_metrics::kNomadicReports);
  t.profile_rebuilds =
      registry.counter_value(edge_metrics::kProfileRebuilds);
  t.tables_generated =
      registry.counter_value(edge_metrics::kTablesGenerated);
  t.ads_seen = registry.counter_value(edge_metrics::kAdsSeen);
  t.ads_delivered = registry.counter_value(edge_metrics::kAdsDelivered);
  t.degraded_cached = registry.counter_value(edge_metrics::kDegradedCached);
  t.degraded_dropped =
      registry.counter_value(edge_metrics::kDegradedDropped);
  t.serve_failed = registry.counter_value(edge_metrics::kServeFailed);
  t.adnet_degraded = registry.counter_value(edge_metrics::kAdnetDegraded);
  // Every serve call lands in exactly one of these buckets; the degraded
  // cached path reuses the top-location candidate set but is tallied
  // separately, so the sum is exact.
  t.requests = t.top_reports + t.nomadic_reports + t.degraded_cached +
               t.degraded_dropped + t.serve_failed;
  return t;
}

double EdgeTelemetry::top_report_ratio() const {
  return requests == 0 ? 0.0
                       : static_cast<double>(top_reports) /
                             static_cast<double>(requests);
}

double EdgeTelemetry::filter_drop_ratio() const {
  return ads_seen == 0 ? 0.0
                       : 1.0 - static_cast<double>(ads_delivered) /
                                   static_cast<double>(ads_seen);
}

std::string EdgeTelemetry::to_string() const {
  std::string out;
  out += "requests          : " + std::to_string(requests) + "\n";
  out += "  top-location    : " + std::to_string(top_reports) + " (" +
         util::format_double(top_report_ratio() * 100.0, 1) + "%)\n";
  out += "  nomadic         : " + std::to_string(nomadic_reports) + "\n";
  out += "profile rebuilds  : " + std::to_string(profile_rebuilds) + "\n";
  out += "tables generated  : " + std::to_string(tables_generated) + "\n";
  out += "ads seen/delivered: " + std::to_string(ads_seen) + "/" +
         std::to_string(ads_delivered) + " (filter drops " +
         util::format_double(filter_drop_ratio() * 100.0, 1) + "%)\n";
  out += "degraded          : " + std::to_string(degraded_cached) +
         " cached, " + std::to_string(degraded_dropped) + " dropped\n";
  out += "failed            : " + std::to_string(serve_failed) +
         " serve, " + std::to_string(adnet_degraded) + " adnet-degraded\n";
  return out;
}

}  // namespace privlocad::core
