// Process-wide observability: named counters, gauges, and latency
// histograms behind one thread-safe registry.
//
// The paper's scalability claims (Tables II/III: one edge platform serving
// tens of thousands of users) are only checkable at production scale if the
// serving path can be observed without slowing it down. Every metric here
// shards its hot state across cache-line-padded atomic slots indexed by a
// per-thread hash, so the write path is a single relaxed fetch_add with no
// shared cache line between workers; reads merge the slots on demand.
// Registration (name lookup) takes a mutex -- callers on hot paths should
// resolve the metric once and keep the reference, which stays valid for
// the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/json.hpp"

namespace privlocad::obs {

/// Slots each metric stripes its atomics across. Threads hash onto slots,
/// so contention drops ~kMetricSlots-fold without per-thread registration.
inline constexpr std::size_t kMetricSlots = 16;

namespace detail {
/// Stable slot index for the calling thread. Inline (not a cross-TU call)
/// so a counter add on the serving hot path compiles down to the TLS read
/// plus one lock-prefixed add.
inline std::size_t this_thread_slot() {
  thread_local const std::size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kMetricSlots;
  return slot;
}
}  // namespace detail

/// Monotonic counter. add() is a relaxed fetch_add on a thread-striped
/// slot; value() sums the slots (so it is eventually exact: it reflects
/// every add() that happened-before the read).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    slots_[detail::this_thread_slot()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kMetricSlots> slots_;
};

/// Last-write-wins instantaneous value (queue depth, thread count, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// The bucket upper bounds (microseconds) latency histograms default to:
/// 1us .. 10s in a 1-2-5 progression, wide enough for any serving path.
std::vector<double> default_latency_bounds_us();

/// Fixed-bucket histogram for latency-style values. record() finds the
/// bucket by binary search and does two relaxed fetch_adds on the calling
/// thread's slot; quantiles interpolate linearly inside the bucket that
/// holds the rank. Values above the last bound land in an implicit
/// overflow bucket; non-finite values are tallied separately in
/// invalid(), never binned.
class LatencyHistogram {
 public:
  /// `upper_bounds` must be non-empty, finite, and strictly increasing.
  explicit LatencyHistogram(std::vector<double> upper_bounds);
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record(double value) noexcept;

  /// Observations recorded, including overflow and non-finite ones.
  std::uint64_t count() const noexcept;

  /// Sum of all finite recorded values.
  double sum() const noexcept;

  /// Mean of finite recorded values; 0 when empty.
  double mean() const noexcept;

  /// Estimated q-quantile (q in [0, 1]) of the finite observations,
  /// interpolated within the owning bucket and clamped to the smallest
  /// and largest observation, so it never reports a value no sample
  /// reached (one observation gives that value at every q); 0 when
  /// empty. A rank landing in the overflow bucket CLAMPS to the last
  /// finite bound -- the histogram cannot attest to anything beyond its
  /// range, so a returned value equal to upper_bounds().back() reads as
  /// ">= last bound" and never extrapolates past it.
  double quantile(double q) const;

  std::uint64_t invalid() const noexcept;

  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Merged per-bucket counts; one extra trailing entry for overflow.
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  struct alignas(64) Slot {
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> invalid{0};
    /// Extremes of this slot's finite observations; written only when a
    /// new observation passes them.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  std::vector<double> bounds_;
  std::array<Slot, kMetricSlots> slots_;
  /// Slot-major [slot * (bounds + 1) + bucket] bucket counts.
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

/// Records the scope's wall time (microseconds) into a histogram on
/// destruction; pass nullptr to make the timer a no-op.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(LatencyHistogram* histogram)
      : histogram_(histogram), start_(Clock::now()) {}

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  ~ScopedLatencyTimer() {
    if (histogram_ == nullptr) return;
    const std::chrono::duration<double, std::micro> elapsed =
        Clock::now() - start_;
    histogram_->record(elapsed.count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  LatencyHistogram* histogram_;
  Clock::time_point start_;
};

/// Thread-safe name -> metric registry. Metrics are created on first use
/// and live as long as the registry; re-requesting a name returns the same
/// object, and requesting it as a different kind throws InvalidArgument.
/// Export walks metrics in registration order so dumps diff cleanly.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);
  LatencyHistogram& histogram(const std::string& name,
                              std::vector<double> upper_bounds);

  /// Current value of a counter, or 0 if no counter has that name. The
  /// typed-view helpers (core::EdgeTelemetry) read through this.
  std::uint64_t counter_value(const std::string& name) const;

  /// Appends every metric to `json` under `prefix` + its name. Counters
  /// emit one integer; gauges one double; histograms emit the flat
  /// `<name>_count/_mean/_p50/_p95/_p99` family (same schema the
  /// BENCH_*.json perf records use).
  void append_json(JsonWriter& json, const std::string& prefix = "") const;

  /// Human-readable "name: value" dump, one metric per line.
  std::string to_string() const;

  /// Writes the registry to `path` as one flat JSON object; false (with a
  /// stderr warning) on failure.
  bool write_json_file(const std::string& path) const;

  /// Process-wide registry (attack latency, pool stats, anything not tied
  /// to one device). Library code records here; tools export it.
  static MetricsRegistry& global();

  /// Writes the registry to the path in $PRIVLOCAD_METRICS, if set.
  /// Returns true only when the variable was set and the write succeeded.
  bool export_to_env_path() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry& entry_for(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, Entry*> by_name_;
};

}  // namespace privlocad::obs
