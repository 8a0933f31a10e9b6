// Edge-device telemetry: the operational counters a deployment watches.
//
// The paper's scalability story (Tables II/III) is about edge devices
// serving tens of thousands of users; an operable implementation needs to
// see what those devices are doing: how many requests took the permanent
// top-location path vs. the nomadic path, how often profiles rebuilt, how
// much ad traffic the relevance filter absorbed.
//
// Since PR 3 the live tallies are obs::MetricsRegistry counters (sharded
// relaxed atomics, named below), so they are thread-safe, exportable as
// JSON alongside the serve-latency histograms, and shared across the
// shards of one ConcurrentEdge. EdgeTelemetry is the typed snapshot VIEW
// over those counters: EdgeDevice::telemetry() materializes one via
// from_registry(), adding the derived ratios and a to_string report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace privlocad::obs {
class MetricsRegistry;
}

namespace privlocad::core {

/// Registry metric names the edge serving path records under. One shared
/// vocabulary so dashboards, benches, and EdgeTelemetry::from_registry
/// never drift apart.
namespace edge_metrics {
/// Every serve call ends in exactly one of the top/nomadic/degraded/failed
/// counters, so `requests` is derived as their sum at snapshot time
/// rather than paying an extra hot-path increment per request.
inline constexpr const char* kTopReports = "edge.reports.top";
inline constexpr const char* kNomadicReports = "edge.reports.nomadic";
inline constexpr const char* kProfileRebuilds = "edge.profile_rebuilds";
inline constexpr const char* kTablesGenerated = "edge.tables_generated";
inline constexpr const char* kAdsSeen = "edge.ads.seen";
inline constexpr const char* kAdsDelivered = "edge.ads.delivered";
/// Latency histogram (microseconds) around a sampled serve call.
inline constexpr const char* kServeLatencyUs = "edge.serve_latency_us";
/// Fault-tolerance counters: degraded_* count the two fail-private
/// fallbacks; failed counts requests ending in an internal error (typed,
/// not thrown).
inline constexpr const char* kDegradedCached = "edge.serve.degraded_cached";
inline constexpr const char* kDegradedDropped =
    "edge.serve.degraded_dropped";
inline constexpr const char* kServeFailed = "edge.serve.failed";
/// Requests whose ad-exchange leg exhausted retries and degraded to an
/// empty ad list (the location report itself still succeeded).
inline constexpr const char* kAdnetDegraded = "edge.adnet.degraded";
}  // namespace edge_metrics

struct EdgeTelemetry {
  std::size_t requests = 0;            ///< serve calls (all outcomes)
  std::size_t top_reports = 0;         ///< served from the frozen table
  std::size_t nomadic_reports = 0;     ///< served via one-time geo-IND
  std::size_t profile_rebuilds = 0;    ///< window-triggered rebuilds
  std::size_t tables_generated = 0;    ///< permanent candidate sets created
  std::size_t ads_seen = 0;            ///< ads entering the relevance filter
  std::size_t ads_delivered = 0;       ///< ads surviving the filter
  std::size_t degraded_cached = 0;     ///< served from frozen cache
  std::size_t degraded_dropped = 0;    ///< dropped rather than leak
  std::size_t serve_failed = 0;        ///< internal error, typed kFailed
  std::size_t adnet_degraded = 0;      ///< ad path degraded to empty

  /// Snapshot of the edge_metrics counters in `registry` (absent counters
  /// read as 0). This is how EdgeDevice/ConcurrentEdge::telemetry()
  /// produce the struct.
  static EdgeTelemetry from_registry(const obs::MetricsRegistry& registry);

  /// Fraction of requests answered from permanent candidates.
  double top_report_ratio() const;

  /// Fraction of matched ads dropped by the edge-side AOI filter --
  /// the bandwidth the edge saves the client.
  double filter_drop_ratio() const;

  /// Multi-line human-readable report for logs/dashboards.
  std::string to_string() const;
};

}  // namespace privlocad::core
