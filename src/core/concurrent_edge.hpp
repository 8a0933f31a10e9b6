// Thread-safe edge serving.
//
// One physical edge box serves many mobile users concurrently (the paper's
// Tables II/III measure exactly that load). EdgeDevice itself is single-
// threaded by design -- its per-user state and its RNG are not synchronized
// -- so this wrapper shards users across a fixed set of internal devices,
// one mutex per shard. Users hash to shards, so one user's requests are
// always serialized (their location manager sees a consistent order) while
// different users proceed in parallel. Telemetry rolls up across shards
// on demand; privacy spend has no cross-shard roll-up.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/edge_device.hpp"

namespace privlocad::par {
class ThreadPool;
}

namespace privlocad::core {

/// Outcome of one serve_trace_batch run. Every request lands in exactly
/// one of the outcome tallies.
struct BatchServeStats {
  std::size_t users = 0;
  std::size_t requests = 0;
  std::size_t served = 0;              ///< released a location normally
  std::size_t degraded_cached = 0;     ///< replayed the frozen set
  std::size_t degraded_dropped = 0;    ///< dropped rather than leak
  std::size_t failed = 0;              ///< typed internal failure
  double wall_seconds = 0.0;

  double requests_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(requests) / wall_seconds
               : 0.0;
  }
};

class ConcurrentEdge {
 public:
  /// config.shards internal devices, every shard sharing config.seed:
  /// per-user RNG streams are split from (seed, user id), so a user's
  /// served outputs are identical at any shard count -- resharding a box
  /// is a pure capacity change, never a behavioral one. All shards record
  /// into ONE metrics registry (sharded atomic counters make that safe),
  /// so telemetry() and metrics() read box-wide totals without touching
  /// any shard mutex.
  explicit ConcurrentEdge(EdgeConfig config);

  /// Thread-safe typed serving; serialized per shard. Never throws (see
  /// EdgeDevice::serve).
  ServeResult serve(std::uint64_t user_id, geo::Point true_location,
                    trace::Timestamp time);

  /// Thread-safe history import.
  void import_history(std::uint64_t user_id, const trace::UserTrace& trace);

  /// Drives a whole population of traces through the sharded devices from
  /// the pool's worker threads: one task per user, so a user's check-ins
  /// stay time-ordered while different users contend on the shard mutexes
  /// exactly as live traffic would. With fault injection disabled,
  /// telemetry counter totals are scheduling-independent (each user's
  /// classification depends only on their own state), so a threads=1 run
  /// and a threads=N run agree. Requests run through serve(), so under
  /// fault injection the batch completes with per-outcome tallies
  /// instead of throwing; those tallies depend on the cross-user arrival
  /// interleaving at the injector's shared per-site counters (see
  /// fault/fault.hpp), so they are bit-stable only single-threaded.
  BatchServeStats serve_trace_batch(
      const std::vector<trace::UserTrace>& traces, par::ThreadPool& pool);

  /// Persists every shard's data plane into one snapshot file (one arena
  /// section per shard, taken under each shard's mutex in turn -- callers
  /// wanting a globally consistent point-in-time image should quiesce
  /// traffic first). Returns kIoError when the file cannot be written.
  util::Status save_snapshot(const std::string& path);

  /// Replaces this (empty) box's data plane with a snapshot, one section
  /// per shard (EdgeDevice::open_snapshot). Returns kIoError /
  /// kParseError on damage, kFailedPrecondition when any shard already
  /// holds users or the snapshot's shard count differs from this box's
  /// (the shard hash must agree with the saved layout); on any error no
  /// shard changes.
  util::Status open_snapshot(const std::string& path);

  /// Box-wide telemetry snapshot, read lock-free off the shared registry.
  EdgeTelemetry telemetry() const;

  /// The shared registry: edge_metrics counters, the serve-latency
  /// histogram, and per-shard "edge.shard<i>.lock_acquisitions" counters
  /// (a skewed shard shows up here before it shows up as tail latency).
  /// The lock counters are tallied under each shard's own mutex and
  /// published into the registry by serve_trace_batch()/telemetry(), so
  /// read them after one of those. serve_trace_batch additionally
  /// publishes the pool's task/steal counters.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Shard {
    std::unique_ptr<EdgeDevice> device;
    /// Times this shard's mutex was taken (contention/skew signal). A
    /// plain tally -- the incrementing path already holds the mutex, so
    /// an atomic would buy nothing and cost a lock-prefixed RMW per
    /// request. publish_shard_counters() moves it into the registry.
    std::uint64_t lock_count = 0;
    /// Portion of lock_count already flushed into the registry counter.
    /// Mutable so the const telemetry() snapshot can publish.
    mutable std::uint64_t lock_count_published = 0;
    obs::Counter* lock_acquisitions = nullptr;
    mutable std::mutex mutex;
  };

  Shard& shard_for(std::uint64_t user_id);

  /// Flushes each shard's lock tally into its registry counter. Called
  /// off the hot path: end of serve_trace_batch and telemetry().
  void publish_shard_counters() const;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace privlocad::core
