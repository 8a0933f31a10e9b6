// Tests for the observability layer: sharded counters, gauges, latency
// histograms, the scoped timer, the metrics registry, and JSON export.
// The multi-threaded suites double as the TSan target for this module
// (-DPRIVLOCAD_SANITIZE=thread): totals must stay exact under hammering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "util/validation.hpp"

namespace privlocad::obs {
namespace {

// ------------------------------------------------------------------ counter

TEST(Counter, AccumulatesSingleThread) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ExactUnderParallelHammering) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

// -------------------------------------------------------------------- gauge

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogram, CtorRejectsBadBounds) {
  EXPECT_THROW(LatencyHistogram({}), util::InvalidArgument);
  EXPECT_THROW(LatencyHistogram({1.0, 1.0}), util::InvalidArgument);
  EXPECT_THROW(LatencyHistogram({2.0, 1.0}), util::InvalidArgument);
  EXPECT_THROW(
      LatencyHistogram({1.0, std::numeric_limits<double>::infinity()}),
      util::InvalidArgument);
  EXPECT_THROW(
      LatencyHistogram({std::numeric_limits<double>::quiet_NaN()}),
      util::InvalidArgument);
}

TEST(LatencyHistogram, CountSumMeanInvalid) {
  LatencyHistogram h({10.0, 20.0, 30.0});
  h.record(5.0);
  h.record(15.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.invalid(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 20.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(LatencyHistogram, BucketEdgesAreUpperInclusive) {
  LatencyHistogram h({10.0, 20.0, 30.0});
  h.record(10.0);  // bucket 0: (0, 10]
  h.record(10.5);  // bucket 1: (10, 20]
  h.record(31.0);  // overflow
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(LatencyHistogram, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.record(15.0);
  // All mass sits in (10, 20]; the median interpolates to its middle.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  // Interpolation would reach the bucket's upper edge; no sample did.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
}

// Regression: one ~389 ms solve in the default (2e5, 5e5] bucket read
// p99 = 497000 us, above the only sample. The quantile is clamped to the
// observed extremes, so a lone observation is every quantile.
TEST(LatencyHistogram, SingleObservationIsEveryQuantile) {
  LatencyHistogram h(default_latency_bounds_us());
  h.record(389000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 389000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 389000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 389000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 389000.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 389000.0);
}

TEST(LatencyHistogram, QuantileStaysWithinObservedRange) {
  LatencyHistogram h({10.0, 20.0, 30.0});
  h.record(11.0);
  h.record(12.0);
  h.record(std::numeric_limits<double>::infinity());  // not a sample
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 11.0);  // interpolation gives 10
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 12.0);  // interpolation gives 20
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 12.0);
}

TEST(LatencyHistogram, OverflowClampsToLastBound) {
  LatencyHistogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.record(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 30.0);
}

TEST(LatencyHistogram, EmptyAndDomainErrors) {
  LatencyHistogram h({10.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_THROW(h.quantile(-0.1), util::InvalidArgument);
  EXPECT_THROW(h.quantile(1.1), util::InvalidArgument);
}

TEST(LatencyHistogram, ExactUnderParallelHammering) {
  LatencyHistogram h(default_latency_bounds_us());
  constexpr int kThreads = 8;
  constexpr int kRecordsPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        h.record(static_cast<double>((t * 31 + i) % 1000) + 1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kRecordsPerThread;
  EXPECT_EQ(h.count(), expected);
  EXPECT_EQ(h.invalid(), 0u);
  std::uint64_t binned = 0;
  for (const std::uint64_t c : h.bucket_counts()) binned += c;
  EXPECT_EQ(binned, expected);
  // Every recorded value lies in [1, 1000], so the quantiles must too.
  EXPECT_GE(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.99), 1000.0);
}

// ------------------------------------------------------------- scoped timer

TEST(ScopedLatencyTimer, RecordsOneSampleOnDestruction) {
  LatencyHistogram h(default_latency_bounds_us());
  { const ScopedLatencyTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ScopedLatencyTimer, NullHistogramIsNoOp) {
  const ScopedLatencyTimer timer(nullptr);  // must not crash
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests");
  Counter& b = registry.counter("requests");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter_value("requests"), 3u);
  EXPECT_EQ(registry.counter_value("absent"), 0u);

  LatencyHistogram& h1 = registry.histogram("latency", {10.0, 20.0});
  LatencyHistogram& h2 = registry.histogram("latency");  // first bounds win
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.upper_bounds().size(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), util::InvalidArgument);
  EXPECT_THROW(registry.histogram("x"), util::InvalidArgument);
  registry.histogram("h");
  EXPECT_THROW(registry.counter("h"), util::InvalidArgument);
}

TEST(MetricsRegistry, JsonExportUsesFlatSchema) {
  MetricsRegistry registry;
  registry.counter("edge.requests").add(7);
  registry.gauge("pool.queue_depth").set(2.0);
  registry.histogram("serve_us", {10.0, 20.0}).record(15.0);

  JsonWriter json;
  registry.append_json(json, "m.");
  const std::string text = json.to_string();
  EXPECT_NE(text.find("\"m.edge.requests\": 7"), std::string::npos);
  EXPECT_NE(text.find("\"m.pool.queue_depth\""), std::string::npos);
  EXPECT_NE(text.find("\"m.serve_us_count\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"m.serve_us_mean\""), std::string::npos);
  EXPECT_NE(text.find("\"m.serve_us_p50\""), std::string::npos);
  EXPECT_NE(text.find("\"m.serve_us_p95\""), std::string::npos);
  EXPECT_NE(text.find("\"m.serve_us_p99\""), std::string::npos);
  EXPECT_FALSE(registry.to_string().empty());
}

TEST(MetricsRegistry, WriteJsonFileRoundTrips) {
  MetricsRegistry registry;
  registry.counter("n").add(5);
  const std::string path = ::testing::TempDir() + "obs_registry_test.json";
  ASSERT_TRUE(registry.write_json_file(path));
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"n\": 5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, ExportToEnvPathHonorsVariable) {
  MetricsRegistry registry;
  registry.counter("n").add(1);

  ::unsetenv("PRIVLOCAD_METRICS");
  EXPECT_FALSE(registry.export_to_env_path());

  const std::string path = ::testing::TempDir() + "obs_env_export_test.json";
  ::setenv("PRIVLOCAD_METRICS", path.c_str(), 1);
  EXPECT_TRUE(registry.export_to_env_path());
  ::unsetenv("PRIVLOCAD_METRICS");
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(MetricsRegistry, ExactUnderThreadPoolHammering) {
  // The integration shape the serving path uses: tasks on a real pool
  // resolve metrics once and hammer them concurrently. Totals must be
  // exact, and registration from many threads must be safe.
  MetricsRegistry registry;
  par::ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr int kOpsPerTask = 2000;

  pool.for_each_index(0, kTasks, 1, [&registry](std::size_t task) {
    Counter& hits = registry.counter("hits");
    LatencyHistogram& latency = registry.histogram("latency_us");
    for (int i = 0; i < kOpsPerTask; ++i) {
      hits.add();
      latency.record(static_cast<double>((task + i) % 500) + 0.5);
    }
    registry.counter("task." + std::to_string(task % 4)).add();
  });

  EXPECT_EQ(registry.counter_value("hits"),
            static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_EQ(registry.histogram("latency_us").count(),
            static_cast<std::uint64_t>(kTasks) * kOpsPerTask);
  std::uint64_t sharded = 0;
  for (int s = 0; s < 4; ++s) {
    sharded += registry.counter_value("task." + std::to_string(s));
  }
  EXPECT_EQ(sharded, kTasks);

  const par::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  pool.export_metrics(registry);
  EXPECT_NE(registry.to_string().find("pool.tasks_executed: "),
            std::string::npos);
}

// Regression: a quantile rank landing in the trailing overflow bucket
// must CLAMP to the last finite bound, never report a value past the
// histogram range (there is no upper edge to interpolate toward).
TEST(LatencyHistogram, QuantileInOverflowBucketClampsToLastBound) {
  LatencyHistogram h({1.0, 10.0});
  h.record(250.0);
  h.record(1e6);
  h.record(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(LatencyHistogram, QuantileMixedFiniteAndOverflowRanks) {
  LatencyHistogram h({1.0, 10.0});
  for (int i = 0; i < 9; ++i) h.record(0.5);  // first bucket
  h.record(1e9);                              // overflow
  // Rank 9/10 still lands in the finite first bucket: interpolation stays
  // inside (0, 1].
  EXPECT_LE(h.quantile(0.9), 1.0);
  // Ranks past the finite mass clamp to the last bound -- and are never
  // extrapolated beyond it.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

// -------------------------------------------------------------- json writer

TEST(JsonWriter, PreservesOrderAndEscapes) {
  JsonWriter json;
  json.add("first", std::uint64_t{1});
  json.add("nan_value", std::numeric_limits<double>::quiet_NaN());
  json.add_string("label", "say \"hi\"\nthere");
  const std::string text = json.to_string();
  EXPECT_NE(text.find("\"first\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"nan_value\": null"), std::string::npos);
  EXPECT_NE(text.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_LT(text.find("first"), text.find("label"));
}

}  // namespace
}  // namespace privlocad::obs
