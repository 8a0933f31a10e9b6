#include "core/edge_device.hpp"

#include <cmath>

#include "core/output_selection.hpp"
#include "core/snapshot.hpp"
#include "util/validation.hpp"

namespace privlocad::core {

void EdgeConfig::validate() const {
  util::require_positive(top_match_radius_m, "top_match_radius_m");
  util::require_positive(table_match_radius_m, "table_match_radius_m");
  util::require_positive(targeting_radius_m, "targeting_radius_m");
  util::require(shards >= 1, "EdgeConfig.shards must be >= 1");
  top_params.validate();
  util::require_positive(nomadic_params.level, "nomadic_params.level");
  util::require_positive(nomadic_params.radius_m, "nomadic_params.radius_m");
  util::require(management.window_seconds > 0, "window_seconds must be > 0");
  // The threshold is the profile rebuild's grid cell size. serve()
  // bounds |x|, |y| by kMaxPlaneCoordinateM; cells of at least 1 cm keep
  // every cell index inside GridIndex's int32 range.
  util::require_positive(management.profiling_threshold_m,
                         "profiling threshold");
  util::require(management.profiling_threshold_m >= 0.01,
                "profiling threshold must be >= 0.01 m");
  util::require(
      management.eta_fraction > 0.0 && management.eta_fraction <= 1.0,
      "eta_fraction must be in (0, 1]");
  retry.validate();
}

util::Status check_plane_location(geo::Point location) {
  // One comparison per axis also rejects NaN and +-inf: every comparison
  // against NaN is false, and |inf| exceeds the bound.
  if (std::abs(location.x) <= kMaxPlaneCoordinateM &&
      std::abs(location.y) <= kMaxPlaneCoordinateM) {
    return util::Status();
  }
  // The message names no coordinate: a status may be logged, and a
  // half-valid point still carries one real axis.
  return util::Status::invalid_argument(
      "request location is non-finite or outside the local plane "
      "(|x|, |y| <= 2.1e7 m)");
}

EdgeDevice::EdgeDevice(EdgeConfig config)
    : EdgeDevice(config, std::make_shared<obs::MetricsRegistry>()) {}

EdgeDevice::EdgeDevice(EdgeConfig config,
                       std::shared_ptr<obs::MetricsRegistry> metrics)
    : config_(config),
      top_mechanism_(config.top_params),
      nomadic_mechanism_(config.nomadic_params),
      metrics_(std::move(metrics)),
      faults_(config.faults != nullptr ? config.faults
                                       : &fault::FaultInjector::global()),
      arena_(rng::Engine(config.seed)) {
  config_.validate();
  util::require(metrics_ != nullptr, "EdgeDevice needs a metrics registry");
  top_reports_total_ = &metrics_->counter(edge_metrics::kTopReports);
  nomadic_reports_total_ =
      &metrics_->counter(edge_metrics::kNomadicReports);
  profile_rebuilds_total_ =
      &metrics_->counter(edge_metrics::kProfileRebuilds);
  tables_generated_total_ =
      &metrics_->counter(edge_metrics::kTablesGenerated);
  ads_seen_total_ = &metrics_->counter(edge_metrics::kAdsSeen);
  ads_delivered_total_ = &metrics_->counter(edge_metrics::kAdsDelivered);
  serve_retries_total_ = &metrics_->counter(edge_metrics::kServeRetries);
  served_after_retry_total_ =
      &metrics_->counter(edge_metrics::kServedAfterRetry);
  degraded_cached_total_ =
      &metrics_->counter(edge_metrics::kDegradedCached);
  degraded_dropped_total_ =
      &metrics_->counter(edge_metrics::kDegradedDropped);
  serve_failed_total_ = &metrics_->counter(edge_metrics::kServeFailed);
  serve_latency_ = &metrics_->histogram(edge_metrics::kServeLatencyUs);
}

ServeResult EdgeDevice::serve(std::uint64_t user_id,
                              geo::Point true_location,
                              trace::Timestamp time) {
  // The no-throw boundary: whatever breaks inside, the caller gets a
  // typed outcome and nothing unobfuscated has left the device (the raw
  // location is only ever released through a mechanism). An off-plane
  // location fails here, before it can reach the arena or a mechanism.
  util::Status status = check_plane_location(true_location);
  if (status.ok()) {
    try {
      return serve_impl(user_id, true_location, time);
    } catch (const std::exception& error) {
      status = util::status_from_exception(error);
    }
  }
  serve_failed_total_->add();
  ServeResult failed;
  failed.outcome = ServeOutcome::kFailed;
  failed.status = std::move(status);
  return failed;
}

ServeResult EdgeDevice::serve_impl(std::uint64_t user_id,
                                   geo::Point true_location,
                                   trace::Timestamp time) {
  const bool time_this_call =
      serve_calls_++ % kServeLatencySampleStride == 0;
  const obs::ScopedLatencyTimer latency_timer(
      time_this_call ? serve_latency_ : nullptr);
  const UserArena::Row row = arena_.find_or_create(user_id);
  if (arena_.record(row, true_location, time, config_.management)) {
    profile_rebuilds_total_->add();
  }
  const std::int64_t top =
      arena_.matching_top(row, true_location, config_.top_match_radius_m);
  // Row creation is done for this request, so the reference stays valid
  // across every arena call below (compaction never moves row scalars).
  rng::Engine& engine = arena_.engine(row);

  // Acquire the obfuscation inputs (mechanism/noise backend). This is the
  // serve-path fault seam: transient failures are retried with capped
  // exponential backoff; a disabled injector reduces the whole block to
  // one branch.
  ServeResult result;
  util::Status inputs = util::Status();
  if (faults_->enabled()) {
    std::size_t retries = 0;
    inputs = fault::retry_with_backoff(
        config_.retry, engine,
        [this] { return faults_->check(fault::Site::kServe); }, &retries);
    result.retries = static_cast<std::uint32_t>(retries);
    if (retries > 0) serve_retries_total_->add(retries);
  }

  if (!inputs.ok()) {
    // Degraded serving: obfuscation inputs are down. The frozen candidate
    // set (if this top location already has one) is pure post-processing
    // -- replaying it needs no fresh noise and spends no privacy -- so it
    // is the safe fallback. Without one, the request is dropped: a raw
    // location is never a fallback ("fail private").
    result.status = inputs;
    if (top >= 0) {
      const geo::Point top_location = arena_.top_entry(row, top).location;
      const std::int64_t entry = arena_.find_entry(
          row, top_location, config_.table_match_radius_m);
      if (entry >= 0) {
        const simd::PointSpan cached = arena_.entry_candidates(row, entry);
        const std::size_t chosen = select_candidate(
            engine, cached, mechanism_for(row).posterior_sigma());
        degraded_cached_total_->add();
        result.outcome = ServeOutcome::kDegradedCached;
        result.reported = {{cached.xs[chosen], cached.ys[chosen]},
                           ReportKind::kTopLocation};
        return result;
      }
    }
    degraded_dropped_total_->add();
    result.outcome = ServeOutcome::kDegradedDropped;
    return result;
  }
  result.outcome = result.retries > 0 ? ServeOutcome::kServedAfterRetry
                                      : ServeOutcome::kServed;
  if (result.retries > 0) served_after_retry_total_->add();

  if (top >= 0) {
    const lppm::NFoldGaussianMechanism& mechanism = mechanism_for(row);
    const geo::Point top_location = arena_.top_entry(row, top).location;
    std::int64_t entry = arena_.find_entry(row, top_location,
                                           config_.table_match_radius_m);
    if (entry < 0) {
      // First sight of this top location: the only moment privacy is
      // actually spent on it. Every later request replays the set.
      entry = static_cast<std::int64_t>(
          arena_.add_entry(row, top_location, mechanism, engine));
      accountant_.record(user_id, {mechanism.params().epsilon,
                                   mechanism.params().delta});
      tables_generated_total_->add();
    }
    // Fetch the span only after add_entry: appending may compact columns.
    const simd::PointSpan candidates = arena_.entry_candidates(row, entry);
    const std::size_t chosen =
        select_candidate(engine, candidates, mechanism.posterior_sigma());
    top_reports_total_->add();
    result.reported = {{candidates.xs[chosen], candidates.ys[chosen]},
                       ReportKind::kTopLocation};
    return result;
  }

  // Nomadic path: every release is an independent one-time charge at the
  // planar-Laplace level (eps = l, pure DP-style: delta = 0).
  accountant_.record(user_id, {config_.nomadic_params.level, 0.0});
  nomadic_reports_total_->add();
  result.reported = {nomadic_mechanism_.obfuscate_one(engine, true_location),
                     ReportKind::kNomadic};
  return result;
}

std::vector<adnet::Ad> EdgeDevice::filter_ads(
    const std::vector<adnet::Ad>& ads, geo::Point true_location) {
  const double r2 = config_.targeting_radius_m * config_.targeting_radius_m;
  std::vector<adnet::Ad> relevant;
  relevant.reserve(ads.size());
  for (const adnet::Ad& ad : ads) {
    if (geo::distance_squared(ad.business_location, true_location) <= r2) {
      relevant.push_back(ad);
    }
  }
  ads_seen_total_->add(ads.size());
  ads_delivered_total_->add(relevant.size());
  return relevant;
}

void EdgeDevice::import_history(std::uint64_t user_id,
                                const trace::UserTrace& trace) {
  const UserArena::Row row = arena_.find_or_create(user_id);
  for (const trace::CheckIn& c : trace.check_ins) {
    // Window-boundary rebuilds during a bulk import are bookkeeping, not
    // live traffic, so they do not count in telemetry.
    (void)arena_.record(row, c.position, c.time, config_.management);
  }
  // The last window is partial. Rebuilding from fewer check-ins than a
  // window boundary would accept can drop a known top location, so such
  // a tail stays pending and the current profile keeps serving.
  if (!arena_.has_profile(row) ||
      arena_.pending_check_ins(row) >=
          config_.management.min_window_check_ins) {
    arena_.rebuild_now(row, config_.management);
  }
}

const lppm::NFoldGaussianMechanism& EdgeDevice::mechanism_for(
    UserArena::Row row) const {
  const auto it = custom_mechanisms_.find(row);
  return it != custom_mechanisms_.end() ? it->second : top_mechanism_;
}

void EdgeDevice::set_user_privacy(std::uint64_t user_id,
                                  lppm::BoundedGeoIndParams params) {
  params.validate();
  const UserArena::Row row = arena_.find_or_create(user_id);
  arena_.set_custom_params(row, params);
  custom_mechanisms_.insert_or_assign(row,
                                      lppm::NFoldGaussianMechanism(params));
}

const lppm::BoundedGeoIndParams& EdgeDevice::user_privacy(
    std::uint64_t user_id) {
  return mechanism_for(arena_.find_or_create(user_id)).params();
}

util::Status EdgeDevice::save_snapshot(const std::string& path) {
  snapshot::Writer writer(path, 1);
  write_snapshot_section(writer);
  return writer.finish();
}

util::Status EdgeDevice::open_snapshot(const std::string& path) {
  EdgeDevice* const self = this;
  return open_snapshot(path, std::span<EdgeDevice* const>(&self, 1));
}

util::Status EdgeDevice::open_snapshot(
    const std::string& path, std::span<EdgeDevice* const> devices) {
  for (const EdgeDevice* device : devices) {
    if (device->arena_.size() != 0) {
      return util::Status::failed_precondition(
          "cannot open a snapshot into a device that already holds users");
    }
  }
  snapshot::Reader reader(path);
  if (!reader.status().ok()) return reader.status();
  if (reader.shard_count() != devices.size()) {
    return util::Status::failed_precondition(
        "snapshot holds " + std::to_string(reader.shard_count()) +
        " shard sections but the target has " +
        std::to_string(devices.size()) +
        " shards (a standalone EdgeDevice opens single-shard snapshots): " +
        path);
  }
  // Parse every section into fresh arenas first; the targets change only
  // once the whole file has parsed.
  std::vector<UserArena> arenas;
  arenas.reserve(devices.size());
  for (const EdgeDevice* device : devices) {
    UserArena& arena = arenas.emplace_back(rng::Engine(device->config_.seed));
    if (util::Status s = arena.load(reader); !s.ok()) return s;
  }
  if (util::Status s = reader.finish(); !s.ok()) return s;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    EdgeDevice& device = *devices[i];
    device.arena_ = std::move(arenas[i]);
    device.custom_mechanisms_.clear();
    for (const auto& [row, params] : device.arena_.all_custom_params()) {
      device.custom_mechanisms_.emplace(row,
                                        lppm::NFoldGaussianMechanism(params));
    }
  }
  return util::Status();
}

void EdgeDevice::write_snapshot_section(snapshot::Writer& writer) {
  arena_.save(writer);
}

RiskAssessment EdgeDevice::assess_user_risk(std::uint64_t user_id,
                                            const RiskConfig& config) {
  const UserArena::Row row = arena_.find_or_create(user_id);
  const attack::LocationProfile profile =
      arena_.has_profile(row) ? arena_.profile_of(row)
                              : attack::LocationProfile();
  return assess_risk(profile, arena_.total_check_ins(row),
                     accountant_.spend_for(user_id), config);
}

}  // namespace privlocad::core
