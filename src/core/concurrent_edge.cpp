#include "core/concurrent_edge.hpp"

#include <atomic>

#include "core/snapshot.hpp"
#include "par/parallel.hpp"
#include "util/timer.hpp"
#include "util/validation.hpp"

namespace privlocad::core {

ConcurrentEdge::ConcurrentEdge(EdgeConfig config)
    : metrics_(std::make_shared<obs::MetricsRegistry>()) {
  config.validate();
  shards_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    // Every shard gets the same seed: per-user streams are split from
    // (seed, user id) inside the device, so moving a user between shards
    // (resharding) cannot change their served outputs.
    shard->device = std::make_unique<EdgeDevice>(config, metrics_);
    shard->lock_acquisitions = &metrics_->counter(
        "edge.shard" + std::to_string(i) + ".lock_acquisitions");
    shards_.push_back(std::move(shard));
  }
}

ConcurrentEdge::Shard& ConcurrentEdge::shard_for(std::uint64_t user_id) {
  // Fibonacci-hash the user id so consecutive ids spread across shards.
  const std::uint64_t mixed = user_id * 0x9E3779B97F4A7C15ULL;
  return *shards_[mixed % shards_.size()];
}

ServeResult ConcurrentEdge::serve(std::uint64_t user_id,
                                  geo::Point true_location,
                                  trace::Timestamp time) {
  Shard& shard = shard_for(user_id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.lock_count;
  return shard.device->serve(user_id, true_location, time);
}

void ConcurrentEdge::import_history(std::uint64_t user_id,
                                    const trace::UserTrace& trace) {
  Shard& shard = shard_for(user_id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.lock_count;
  shard.device->import_history(user_id, trace);
}

BatchServeStats ConcurrentEdge::serve_trace_batch(
    const std::vector<trace::UserTrace>& traces, par::ThreadPool& pool) {
  const util::Timer timer;
  // One task per user keeps each trace time-ordered; different users hit
  // the shard mutexes concurrently, which is the contention pattern a live
  // deployment produces. serve() never throws, so under fault injection
  // the batch runs to completion and tallies per-outcome totals.
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> served_after_retry{0};
  std::atomic<std::size_t> degraded_cached{0};
  std::atomic<std::size_t> degraded_dropped{0};
  std::atomic<std::size_t> failed{0};
  par::parallel_for(
      pool, 0, traces.size(), /*grain=*/1, [&](std::size_t i) {
        const trace::UserTrace& trace = traces[i];
        std::size_t ok = 0, after_retry = 0, cached = 0, dropped = 0,
                    errors = 0;
        for (const trace::CheckIn& c : trace.check_ins) {
          const ServeResult r = serve(trace.user_id, c.position, c.time);
          switch (r.outcome) {
            case ServeOutcome::kServed: ++ok; break;
            case ServeOutcome::kServedAfterRetry:
              ++ok;
              ++after_retry;
              break;
            case ServeOutcome::kDegradedCached: ++cached; break;
            case ServeOutcome::kDegradedDropped: ++dropped; break;
            case ServeOutcome::kFailed: ++errors; break;
          }
        }
        served.fetch_add(ok, std::memory_order_relaxed);
        served_after_retry.fetch_add(after_retry, std::memory_order_relaxed);
        degraded_cached.fetch_add(cached, std::memory_order_relaxed);
        degraded_dropped.fetch_add(dropped, std::memory_order_relaxed);
        failed.fetch_add(errors, std::memory_order_relaxed);
      });

  BatchServeStats stats;
  stats.users = traces.size();
  for (const trace::UserTrace& trace : traces) {
    stats.requests += trace.check_ins.size();
  }
  stats.served = served.load(std::memory_order_relaxed);
  stats.served_after_retry =
      served_after_retry.load(std::memory_order_relaxed);
  stats.degraded_cached = degraded_cached.load(std::memory_order_relaxed);
  stats.degraded_dropped = degraded_dropped.load(std::memory_order_relaxed);
  stats.failed = failed.load(std::memory_order_relaxed);
  stats.wall_seconds = timer.elapsed_seconds();
  // Publish the shard lock tallies and the pool's cumulative execution
  // counters next to the serving metrics so one registry dump shows both
  // sides of a batch run.
  publish_shard_counters();
  pool.export_metrics(*metrics_);
  return stats;
}

util::Status ConcurrentEdge::save_snapshot(const std::string& path) {
  snapshot::Writer writer(path,
                          static_cast<std::uint32_t>(shards_.size()));
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    ++shard->lock_count;
    shard->device->write_snapshot_section(writer);
  }
  return writer.finish();
}

util::Status ConcurrentEdge::open_snapshot(const std::string& path) {
  // Every shard stays locked from the emptiness check to the commit.
  std::vector<std::unique_lock<std::mutex>> locks;
  std::vector<EdgeDevice*> devices;
  locks.reserve(shards_.size());
  devices.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
    ++shard->lock_count;
    devices.push_back(shard->device.get());
  }
  return EdgeDevice::open_snapshot(path, devices);
}

void ConcurrentEdge::publish_shard_counters() const {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lock_acquisitions->add(shard->lock_count -
                                  shard->lock_count_published);
    shard->lock_count_published = shard->lock_count;
  }
}

EdgeTelemetry ConcurrentEdge::telemetry() const {
  // The edge_metrics counters live in the shared registry already; only
  // the shard lock tallies need a lock sweep to publish.
  publish_shard_counters();
  return EdgeTelemetry::from_registry(*metrics_);
}

}  // namespace privlocad::core
