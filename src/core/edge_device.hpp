// The trusted edge device (paper Section V-A).
//
// Serves nearby mobile users as a privacy firewall between them and the
// LBA ecosystem. For every LBA request the device:
//   1. records the raw check-in into the user's location-management state
//      (which periodically rebuilds the profile and top-location set);
//   2. decides whether the present location is one of the user's top
//      locations (within a match radius);
//   3. for a top location -- looks up / generates the PERMANENT candidate
//      set in the obfuscation table (n-fold Gaussian) and samples one
//      candidate with the posterior output-selection rule;
//   4. for a nomadic location -- applies one-time planar-Laplace geo-IND
//      (safe there: nomadic locations are rarely repeated, so composition
//      over them is not the threat);
//   5. after the ad network responds, filters the returned ads down to
//      those relevant to the user's TRUE location (inside the AOI),
//      saving client bandwidth.
//
// All per-user state lives in one columnar UserArena (core/user_arena.hpp):
// profiles, top sets, obfuscation-table entries, candidate sets, and
// pending windows are contiguous SoA columns indexed through a compact
// user directory. Candidate sets are scored by the posterior kernel
// directly from the columns, and the whole device state round-trips
// through a binary snapshot file (save_snapshot / open_snapshot, the only
// persistence path) that opens by copying each column extent into place,
// never by a text parse.
//
// Determinism: each user's randomness is an independent engine split from
// the config seed by user id, so a user's served outputs depend only on
// (seed, user id, that user's request stream) -- identical across shard
// counts, request interleavings, and snapshot save/open cycles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "adnet/ad_network.hpp"
#include "core/risk.hpp"
#include "core/telemetry.hpp"
#include "core/user_arena.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "lppm/accountant.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/planar_laplace.hpp"
#include "obs/metrics.hpp"
#include "rng/engine.hpp"
#include "trace/check_in.hpp"
#include "util/status.hpp"

namespace privlocad::core {

/// The one validated aggregate configuring every edge flavour (EdgeDevice,
/// ConcurrentEdge, EdgeCluster cells, EdgePrivLocAd). Construction-time
/// knobs that used to travel as extra constructor parameters (seed, shard
/// count) live here, so every edge constructor takes exactly one config.
struct EdgeConfig {
  /// Permanent protection for top locations (the n-fold Gaussian).
  lppm::BoundedGeoIndParams top_params{};

  /// One-time geo-IND for nomadic locations (planar Laplace l/r).
  lppm::GeoIndParams nomadic_params{std::log(4.0), 200.0};

  /// Profile management (window length, eta, clustering threshold).
  LocationManagementConfig management{};

  /// A check-in within this distance of a known top location is treated
  /// as a visit to it.
  double top_match_radius_m = 100.0;

  /// Obfuscation-table entry matching radius (top-centroid drift bound).
  double table_match_radius_m = 100.0;

  /// Targeting radius R defining the AOI used for edge-side ad filtering.
  double targeting_radius_m = 5000.0;

  /// Seed for the per-user RNG streams (candidate noise, output
  /// selection, backoff jitter): user u's engine is split(seed, u), so
  /// every shard of a ConcurrentEdge shares the same seed and still
  /// serves each user an independent stream.
  std::uint64_t seed = 1;

  /// Internal device count of a ConcurrentEdge (>= 1); ignored by a
  /// standalone EdgeDevice.
  std::size_t shards = 16;

  /// Backoff policy for transient obfuscation-input faults in serve().
  fault::RetryPolicy retry{};

  /// Fault injector consulted by serve(); nullptr selects
  /// fault::FaultInjector::global() (configured from PRIVLOCAD_FAULTS).
  fault::FaultInjector* faults = nullptr;

  /// Throws util::InvalidArgument unless every field is in-domain
  /// (radii > 0, shards >= 1, management window/eta in-domain, retry
  /// policy valid, privacy params valid). Every edge constructor calls
  /// this.
  void validate() const;

  /// Fluent copies for call sites that tweak one knob:
  ///   EdgeDevice device(config().with_seed(42));
  EdgeConfig with_seed(std::uint64_t s) const {
    EdgeConfig copy = *this;
    copy.seed = s;
    return copy;
  }
  EdgeConfig with_shards(std::size_t n) const {
    EdgeConfig copy = *this;
    copy.shards = n;
    return copy;
  }
};

/// How a reported location was produced; exposed for tests and metrics.
enum class ReportKind { kTopLocation, kNomadic };

/// How one serve() call concluded. Every request ends in exactly one of
/// these -- serve() never throws.
enum class ServeOutcome {
  kServed,           ///< normal path, first attempt
  kServedAfterRetry, ///< normal path after >= 1 transient-fault retries
  kDegradedCached,   ///< obfuscation inputs down; replayed the frozen set
  kDegradedDropped,  ///< obfuscation inputs down, nothing cached: request
                     ///< dropped rather than released raw (fail private)
  kFailed,           ///< non-transient internal failure; nothing released
};

/// One in this many serve calls is latency-timed (per device,
/// starting with the first). Reading the clock twice per request costs
/// more than the entire metrics write path, so serve-latency percentiles
/// come from a deterministic 1-in-16 systematic sample.
inline constexpr std::uint64_t kServeLatencySampleStride = 16;

/// Largest |x| or |y|, in metres, of a request location. No point on
/// Earth projects farther than this from a local-plane origin (half the
/// equator is ~2.0e7 m), so anything beyond -- or non-finite -- is a
/// malformed request, not a place, and serve() refuses it.
inline constexpr double kMaxPlaneCoordinateM = 2.1e7;

/// Ok when both coordinates are finite and within kMaxPlaneCoordinateM;
/// otherwise kInvalidArgument (the message quotes neither coordinate).
util::Status check_plane_location(geo::Point location);

struct ReportedLocation {
  geo::Point location;
  ReportKind kind;
};

/// The rich outcome of one serve() call. `reported` is meaningful only
/// when released() -- on a dropped/failed request nothing left the edge,
/// and `status` carries the cause.
struct ServeResult {
  ReportedLocation reported{};
  ServeOutcome outcome = ServeOutcome::kServed;
  util::Status status{};      ///< non-ok when degraded or failed
  std::uint32_t retries = 0;  ///< transient-fault retries performed

  /// True when an (always obfuscated) location was released.
  bool released() const {
    return outcome == ServeOutcome::kServed ||
           outcome == ServeOutcome::kServedAfterRetry ||
           outcome == ServeOutcome::kDegradedCached;
  }
  bool degraded() const {
    return outcome == ServeOutcome::kDegradedCached ||
           outcome == ServeOutcome::kDegradedDropped;
  }
};

class EdgeDevice {
 public:
  /// Owns a fresh metrics registry (standalone device). The config is
  /// validated here; seed, retry policy, and fault injector come from it.
  explicit EdgeDevice(EdgeConfig config);

  /// Records into `metrics` (non-null) instead of a private registry --
  /// how ConcurrentEdge shares one registry across its shards. The
  /// registry's counters are sharded atomics, so concurrent devices can
  /// share it safely.
  EdgeDevice(EdgeConfig config, std::shared_ptr<obs::MetricsRegistry> metrics);

  /// Steps 1-4 above, never throwing: returns the typed outcome of the
  /// request. On transient obfuscation-input faults it retries under the
  /// config's policy; once the budget is exhausted it degrades -- replays
  /// the user's frozen candidate set when one covers the matched top
  /// location, otherwise drops the request. In every path the released
  /// location (if any) is obfuscated; a raw coordinate never crosses this
  /// boundary ("fail private"). A location failing check_plane_location
  /// is kFailed with kInvalidArgument before any state is touched: the
  /// user's arena row, RNG stream and privacy ledger stay as they were.
  ServeResult serve(std::uint64_t user_id, geo::Point true_location,
                    trace::Timestamp time);

  /// Step 5: keeps only the ads whose business lies inside the AOI of the
  /// user's true location. Non-const: updates the filter telemetry.
  std::vector<adnet::Ad> filter_ads(const std::vector<adnet::Ad>& ads,
                                    geo::Point true_location);

  /// Bulk import of a user's history (e.g. on first registration), then a
  /// forced profile rebuild from the last, partial window -- skipped when
  /// the user already has a profile and that window holds fewer than
  /// `min_window_check_ins` check-ins, which then stay pending. Used by
  /// benches to reach steady state fast.
  void import_history(std::uint64_t user_id, const trace::UserTrace& trace);

  /// Personalized privacy (cf. the related work's per-user privacy
  /// preferences): future top-location obfuscations for `user_id` use a
  /// mechanism calibrated to `params` instead of the device default.
  /// Candidate sets that are ALREADY frozen keep their original noise --
  /// permanence wins; regenerating at a new level would leak a second
  /// independent draw of the same location.
  void set_user_privacy(std::uint64_t user_id,
                        lppm::BoundedGeoIndParams params);

  /// The parameters governing `user_id`'s future top-location releases.
  const lppm::BoundedGeoIndParams& user_privacy(std::uint64_t user_id);

  // ------------------------------------------------------------ snapshots
  /// Persists the entire data plane (every user's profile, top set,
  /// frozen candidate sets, pending window, RNG stream, and personalized
  /// parameters) into one binary snapshot file (core/snapshot.hpp) -- the
  /// one persistence format. Restarting a device WITHOUT this state would
  /// regenerate fresh noise for known top locations, a privacy leak.
  /// Returns kIoError when the file cannot be written.
  util::Status save_snapshot(const std::string& path);

  /// Replaces this (empty) device's data plane with a single-shard
  /// snapshot. Serving then resumes exactly where the saved device left
  /// off -- bit-identical outputs, because the per-user RNG streams are
  /// part of the snapshot. Returns kIoError / kParseError on damage,
  /// kFailedPrecondition when this device already holds users or the
  /// snapshot is multi-shard; on any error the device is unchanged.
  util::Status open_snapshot(const std::string& path);

  /// The one open sequence behind both edge flavours: section i of the
  /// snapshot at `path` goes to devices[i]. Every device must be empty
  /// and the section count must match (checked first); every section is
  /// then parsed into a fresh arena, and the arenas are swapped in only
  /// after all of them parsed, so a failed open changes no device.
  static util::Status open_snapshot(const std::string& path,
                                    std::span<EdgeDevice* const> devices);

  /// Writes this device's arena as one section; ConcurrentEdge packs one
  /// section per shard into a single snapshot file.
  void write_snapshot_section(snapshot::Writer& writer);

  /// Per-user privacy ledger: one charge per nomadic (one-time) release,
  /// one charge per permanent candidate-set generation. Replayed candidates
  /// are post-processing and are never charged.
  const lppm::PrivacyAccountant& accountant() const { return accountant_; }

  /// Snapshot of the operational counters since construction (a typed
  /// view over the metrics registry; see core/telemetry.hpp).
  EdgeTelemetry telemetry() const {
    return EdgeTelemetry::from_registry(*metrics_);
  }

  /// The registry this device records into: the edge_metrics counters
  /// plus the serve-latency histogram. Export with append_json()/to_string().
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Risk assessment for `user_id` from their current profile, lifetime
  /// check-in count, and privacy spend (paper Section I: the edge
  /// "assesses the risk of location privacy breaches").
  RiskAssessment assess_user_risk(std::uint64_t user_id,
                                  const RiskConfig& config = {});

  std::size_t user_count() const { return arena_.size(); }
  const EdgeConfig& config() const { return config_; }
  const lppm::NFoldGaussianMechanism& top_mechanism() const {
    return top_mechanism_;
  }

 private:
  /// The mechanism governing `row`'s top-location releases.
  const lppm::NFoldGaussianMechanism& mechanism_for(UserArena::Row row) const;

  /// The serving body behind serve()'s try/catch boundary.
  ServeResult serve_impl(std::uint64_t user_id, geo::Point true_location,
                         trace::Timestamp time);

  EdgeConfig config_;
  lppm::NFoldGaussianMechanism top_mechanism_;
  lppm::PlanarLaplaceMechanism nomadic_mechanism_;
  lppm::PrivacyAccountant accountant_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  /// The injector serve() consults (config's, or the process-global one).
  fault::FaultInjector* faults_;
  // Metric handles resolved once at construction so the serving hot path
  // never takes the registry's registration mutex.
  obs::Counter* top_reports_total_;
  obs::Counter* nomadic_reports_total_;
  obs::Counter* profile_rebuilds_total_;
  obs::Counter* tables_generated_total_;
  obs::Counter* ads_seen_total_;
  obs::Counter* ads_delivered_total_;
  obs::Counter* serve_retries_total_;
  obs::Counter* served_after_retry_total_;
  obs::Counter* degraded_cached_total_;
  obs::Counter* degraded_dropped_total_;
  obs::Counter* serve_failed_total_;
  obs::LatencyHistogram* serve_latency_;
  /// Plain counter driving the 1-in-N latency sample: EdgeDevice is
  /// externally synchronized (ConcurrentEdge calls under the shard lock),
  /// so no atomics are needed.
  std::uint64_t serve_calls_ = 0;
  /// The columnar per-user store (directory, profiles, tables, windows).
  UserArena arena_;
  /// Constructed mechanisms for users with personalized parameters (the
  /// parameters themselves live in the arena and persist with it).
  std::unordered_map<UserArena::Row, lppm::NFoldGaussianMechanism>
      custom_mechanisms_;
};

}  // namespace privlocad::core
