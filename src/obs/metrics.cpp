#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <thread>

#include "util/strings.hpp"
#include "util/validation.hpp"

namespace privlocad::obs {

std::vector<double> default_latency_bounds_us() {
  return {1.0,    2.0,    5.0,    10.0,   20.0,   50.0,   100.0, 200.0,
          500.0,  1e3,    2e3,    5e3,    1e4,    2e4,    5e4,   1e5,
          2e5,    5e5,    1e6,    2e6,    5e6,    1e7};
}

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  util::require(!bounds_.empty(), "histogram needs at least one bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    util::require_finite(bounds_[i], "histogram bound");
    util::require(i == 0 || bounds_[i - 1] < bounds_[i],
                  "histogram bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      kMetricSlots * (bounds_.size() + 1));
}

void LatencyHistogram::record(double value) noexcept {
  const std::size_t slot = detail::this_thread_slot();
  Slot& totals = slots_[slot];
  totals.count.fetch_add(1, std::memory_order_relaxed);
  if (!std::isfinite(value)) {
    totals.invalid.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  totals.sum.fetch_add(value, std::memory_order_relaxed);
  double seen = totals.max.load(std::memory_order_relaxed);
  while (value > seen && !totals.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = totals.min.load(std::memory_order_relaxed);
  while (value < seen && !totals.min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  // Bucket b covers (bounds[b-1], bounds[b]]; values past the last bound
  // land in the trailing overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[slot * (bounds_.size() + 1) + bucket].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t LatencyHistogram::invalid() const noexcept {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.invalid.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::sum() const noexcept {
  double total = 0.0;
  for (const Slot& slot : slots_) {
    total += slot.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::mean() const noexcept {
  const std::uint64_t finite = count() - invalid();
  return finite == 0 ? 0.0 : sum() / static_cast<double>(finite);
}

std::vector<std::uint64_t> LatencyHistogram::bucket_counts() const {
  std::vector<std::uint64_t> merged(bounds_.size() + 1, 0);
  for (std::size_t slot = 0; slot < kMetricSlots; ++slot) {
    for (std::size_t b = 0; b < merged.size(); ++b) {
      merged[b] += buckets_[slot * merged.size() + b].load(
          std::memory_order_relaxed);
    }
  }
  return merged;
}

double LatencyHistogram::quantile(double q) const {
  util::require(q >= 0.0 && q <= 1.0, "quantile must lie in [0, 1]");
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;

  double min = std::numeric_limits<double>::infinity();
  double max = -min;
  for (const Slot& slot : slots_) {
    min = std::min(min, slot.min.load(std::memory_order_relaxed));
    max = std::max(max, slot.max.load(std::memory_order_relaxed));
  }

  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[b]);
    if (next >= target) {
      // Rank lands in the trailing overflow bucket: the histogram only
      // knows those observations exceed the last finite bound, so the
      // estimate CLAMPS to that bound instead of interpolating past the
      // histogram range (there is no upper edge to interpolate toward).
      // A reported quantile equal to upper_bounds().back() therefore
      // means ">= the last bound"; widen the bounds to resolve it.
      if (b == bounds_.size()) return bounds_.back();
      const double lower = b == 0 ? 0.0 : bounds_[b - 1];
      const double upper = bounds_[b];
      const double fraction = std::clamp(
          (target - cumulative) / static_cast<double>(counts[b]), 0.0, 1.0);
      // Interpolation spreads a bucket's mass over its whole width; the
      // observed extremes bound where that mass really lies. The loads are
      // relaxed, so a read racing record() can see a sample's bucket
      // count before its extremes: they can lag the counts (still +/-inf
      // after a first sample), and then min > max attests to nothing.
      const double estimate = lower + (upper - lower) * fraction;
      return min <= max ? std::clamp(estimate, min, max) : estimate;
    }
    cumulative = next;
  }
  // Unreachable for q in [0, 1] (q * n never exceeds n, so the last
  // non-empty bucket always satisfies next >= target); kept as the
  // largest value the histogram can attest to, for float pathologies.
  return bounds_.back();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Entry& entry = entry_for(name, Kind::kCounter);
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Entry& entry = entry_for(name, Kind::kGauge);
  return *entry.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, default_latency_bounds_us());
}

LatencyHistogram& MetricsRegistry::histogram(
    const std::string& name, std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    util::require(it->second->kind == Kind::kHistogram,
                  "metric '" + name + "' already registered as another kind");
    return *it->second->histogram;  // first registration's bounds win
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = Kind::kHistogram;
  entry->histogram =
      std::make_unique<LatencyHistogram>(std::move(upper_bounds));
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_name_.emplace(name, raw);
  return *raw->histogram;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name,
                                                   Kind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    util::require(it->second->kind == kind,
                  "metric '" + name + "' already registered as another kind");
    return *it->second;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->kind = kind;
  if (kind == Kind::kCounter) entry->counter = std::make_unique<Counter>();
  if (kind == Kind::kGauge) entry->gauge = std::make_unique<Gauge>();
  Entry* raw = entry.get();
  entries_.push_back(std::move(entry));
  by_name_.emplace(name, raw);
  return *raw;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second->kind != Kind::kCounter) return 0;
  return it->second->counter->value();
}

void MetricsRegistry::append_json(JsonWriter& json,
                                  const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : entries_) {
    const std::string key = prefix + entry->name;
    switch (entry->kind) {
      case Kind::kCounter:
        json.add(key, entry->counter->value());
        break;
      case Kind::kGauge:
        json.add(key, entry->gauge->value());
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = *entry->histogram;
        json.add(key + "_count", h.count());
        json.add(key + "_mean", h.mean());
        json.add(key + "_p50", h.quantile(0.50));
        json.add(key + "_p95", h.quantile(0.95));
        json.add(key + "_p99", h.quantile(0.99));
        break;
      }
    }
  }
}

std::string MetricsRegistry::to_string() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        out += entry->name + ": " + std::to_string(entry->counter->value());
        break;
      case Kind::kGauge:
        out += entry->name + ": " +
               util::format_double(entry->gauge->value(), 3);
        break;
      case Kind::kHistogram: {
        const LatencyHistogram& h = *entry->histogram;
        out += entry->name + ": count=" + std::to_string(h.count()) +
               " mean=" + util::format_double(h.mean(), 1) +
               " p50=" + util::format_double(h.quantile(0.50), 1) +
               " p95=" + util::format_double(h.quantile(0.95), 1) +
               " p99=" + util::format_double(h.quantile(0.99), 1);
        break;
      }
    }
    out += '\n';
  }
  return out;
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  JsonWriter json;
  append_json(json);
  return json.write_file(path);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

bool MetricsRegistry::export_to_env_path() const {
  const char* path = std::getenv("PRIVLOCAD_METRICS");
  if (path == nullptr || *path == '\0') return false;
  return write_json_file(path);
}

}  // namespace privlocad::obs
