// Tests for telemetry, the grid-attack baseline, and the thread-safe
// ConcurrentEdge wrapper (hammered from real threads).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "attack/grid_attack.hpp"
#include "core/concurrent_edge.hpp"
#include "core/telemetry.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "trace/synthetic.hpp"
#include "lppm/planar_laplace.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "util/validation.hpp"

namespace privlocad {
namespace {

core::EdgeConfig fast_config() {
  core::EdgeConfig c;
  c.top_params.radius_m = 500.0;
  c.top_params.epsilon = 1.0;
  c.top_params.delta = 0.01;
  c.top_params.n = 10;
  c.management.window_seconds = 1000;
  return c;
}

/// The location one serve() call released; a request that released
/// nothing fails the calling test.
core::ReportedLocation served_location(const core::ServeResult& result) {
  EXPECT_TRUE(result.released()) << result.status.to_string();
  return result.reported;
}

// ---------------------------------------------------------------- telemetry

TEST(Telemetry, RatiosDivideByTheirOwnBase) {
  core::EdgeTelemetry a;
  a.requests = 10;
  a.top_reports = 7;
  a.nomadic_reports = 3;
  a.ads_seen = 100;
  a.ads_delivered = 25;
  EXPECT_DOUBLE_EQ(a.top_report_ratio(), 0.7);
  EXPECT_DOUBLE_EQ(a.filter_drop_ratio(), 0.75);

  // The top ratio is over requests, the drop ratio over ads seen.
  core::EdgeTelemetry b;
  b.requests = 20;
  b.top_reports = 8;
  b.ads_seen = 200;
  b.ads_delivered = 100;
  EXPECT_DOUBLE_EQ(b.top_report_ratio(), 0.4);
  EXPECT_DOUBLE_EQ(b.filter_drop_ratio(), 0.5);
}

TEST(Telemetry, EmptyCountersAreSafe) {
  const core::EdgeTelemetry fresh;
  EXPECT_DOUBLE_EQ(fresh.top_report_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(fresh.filter_drop_ratio(), 0.0);
  EXPECT_FALSE(fresh.to_string().empty());
}

TEST(Telemetry, EdgeDeviceCountsReportsAndFilters) {
  core::EdgeDevice device(fast_config().with_seed(42));
  const geo::Point home{0, 0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  device.import_history(1, history);

  EXPECT_TRUE(device.serve(1, home, 2000).released());            // top
  EXPECT_TRUE(device.serve(1, {30000, 30000}, 2001).released());  // nomadic
  device.filter_ads({{1, {1000, 0}, "a", 1.0}, {2, {20000, 0}, "b", 1.0}},
                    home);

  const core::EdgeTelemetry& t = device.telemetry();
  EXPECT_EQ(t.requests, 2u);
  EXPECT_EQ(t.top_reports, 1u);
  EXPECT_EQ(t.nomadic_reports, 1u);
  EXPECT_EQ(t.tables_generated, 1u);
  EXPECT_EQ(t.ads_seen, 2u);
  EXPECT_EQ(t.ads_delivered, 1u);
}

// -------------------------------------------------------------- grid attack

TEST(GridAttack, RecoversSingleClusterUnderLaplaceNoise) {
  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(1);
  const geo::Point home{5000.0, -3000.0};
  std::vector<geo::Point> observed;
  for (int i = 0; i < 500; ++i) observed.push_back(mech.obfuscate_one(e, home));

  attack::GridAttackConfig config;
  config.cell_size_m = 300.0;
  const auto inferred = attack::grid_attack(observed, config);
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_LT(geo::distance(inferred[0].location, home), 150.0);
  EXPECT_GT(inferred[0].support, 100u);
}

TEST(GridAttack, TopTwoSeparatedClusters) {
  rng::Engine e(2);
  std::vector<geo::Point> observed;
  for (int i = 0; i < 300; ++i) {
    observed.push_back(geo::Point{0, 0} + rng::planar_laplace_noise(e, 0.01));
  }
  for (int i = 0; i < 150; ++i) {
    observed.push_back(geo::Point{9000, 0} +
                       rng::planar_laplace_noise(e, 0.01));
  }
  attack::GridAttackConfig config;
  config.cell_size_m = 300.0;
  config.top_n = 2;
  const auto inferred = attack::grid_attack(observed, config);
  ASSERT_EQ(inferred.size(), 2u);
  EXPECT_LT(geo::distance(inferred[0].location, {0, 0}), 200.0);
  EXPECT_LT(geo::distance(inferred[1].location, {9000, 0}), 200.0);
}

TEST(GridAttack, EmptyAndDegenerateInputs) {
  attack::GridAttackConfig config;
  EXPECT_TRUE(attack::grid_attack({}, config).empty());
  config.top_n = 3;
  const auto inferred = attack::grid_attack({{0, 0}}, config);
  EXPECT_EQ(inferred.size(), 1u);  // runs out of points gracefully
  config.cell_size_m = 0.0;
  EXPECT_THROW(attack::grid_attack({{0, 0}}, config), util::InvalidArgument);
}

TEST(GridAttack, NegativeCoordinatesBinCorrectly) {
  std::vector<geo::Point> observed;
  for (int i = 0; i < 50; ++i) observed.push_back({-5000.0, -5000.0});
  attack::GridAttackConfig config;
  config.cell_size_m = 100.0;
  const auto inferred = attack::grid_attack(observed, config);
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_NEAR(inferred[0].location.x, -5000.0, 1e-9);
}

// ---------------------------------------------------------- concurrent edge

TEST(ConcurrentEdge, SingleThreadBehavesLikeEdgeDevice) {
  core::ConcurrentEdge edge(fast_config().with_shards(4).with_seed(42));
  const geo::Point home{0, 0};
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  edge.import_history(1, history);

  const core::ReportedLocation r =
      served_location(edge.serve(1, home, 2000));
  EXPECT_EQ(r.kind, core::ReportKind::kTopLocation);
  EXPECT_EQ(edge.telemetry().requests, 1u);
}

TEST(ConcurrentEdge, UsersStickToOneShard) {
  core::ConcurrentEdge edge(fast_config().with_shards(4).with_seed(42));
  core::EdgeDevice device(fast_config().with_seed(42));
  // Two requests from the same user must hit the same per-user state:
  // the second one continues the user's noise stream, so both outputs
  // match a single device's bit for bit. A second, fresh user state
  // would restart the stream and release a different second location.
  for (const trace::CheckIn& c :
       {trace::CheckIn{{0, 0}, 0}, trace::CheckIn{{10, 0}, 1}}) {
    const core::ReportedLocation sharded =
        served_location(edge.serve(7, c.position, c.time));
    const core::ReportedLocation single =
        served_location(device.serve(7, c.position, c.time));
    EXPECT_EQ(sharded.location, single.location);
  }
  EXPECT_EQ(edge.telemetry().requests, 2u);
}

TEST(ConcurrentEdge, ParallelHammeringKeepsCountsExact) {
  core::ConcurrentEdge edge(fast_config().with_shards(8).with_seed(42));
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 500;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&edge, t] {
      rng::Engine e(1000 + t);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::uint64_t user = t * 100 + (i % 50);
        EXPECT_TRUE(edge.serve(user,
                               {e.uniform_in(-40000, 40000),
                                e.uniform_in(-40000, 40000)},
                               i)
                        .released());
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const core::EdgeTelemetry total = edge.telemetry();
  EXPECT_EQ(total.requests,
            static_cast<std::size_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(total.top_reports + total.nomadic_reports, total.requests);
}

TEST(ConcurrentEdge, BatchServeMatchesSerialTelemetry) {
  // serve_trace_batch from a multi-threaded pool must be a faster version
  // of the same computation: every telemetry total agrees with the 1-thread
  // run because report classification depends only on per-user state.
  // This test is also the TSan target (-DPRIVLOCAD_SANITIZE=thread).
  trace::SyntheticConfig synth;
  synth.min_check_ins = 30;
  synth.max_check_ins = 120;
  const rng::Engine parent(404);
  const auto population = trace::generate_population(parent, synth, 32);
  std::vector<trace::UserTrace> traces;
  traces.reserve(population.size());
  for (const trace::SyntheticUser& user : population) {
    traces.push_back(user.trace);
  }

  par::ThreadPool serial_pool(1);
  core::ConcurrentEdge serial_edge(fast_config().with_shards(8).with_seed(42));
  const core::BatchServeStats serial =
      serial_edge.serve_trace_batch(traces, serial_pool);

  par::ThreadPool parallel_pool(8);
  core::ConcurrentEdge parallel_edge(fast_config().with_shards(8).with_seed(42));
  const core::BatchServeStats parallel =
      parallel_edge.serve_trace_batch(traces, parallel_pool);

  std::size_t expected_requests = 0;
  for (const trace::UserTrace& t : traces) {
    expected_requests += t.check_ins.size();
  }
  EXPECT_EQ(serial.users, traces.size());
  EXPECT_EQ(parallel.users, traces.size());
  EXPECT_EQ(serial.requests, expected_requests);
  EXPECT_EQ(parallel.requests, expected_requests);

  const core::EdgeTelemetry a = serial_edge.telemetry();
  const core::EdgeTelemetry b = parallel_edge.telemetry();
  EXPECT_EQ(a.requests, expected_requests);
  EXPECT_EQ(b.requests, a.requests);
  EXPECT_EQ(b.top_reports, a.top_reports);
  EXPECT_EQ(b.nomadic_reports, a.nomadic_reports);
  EXPECT_EQ(b.tables_generated, a.tables_generated);
}

TEST(ConcurrentEdge, RejectsZeroShards) {
  EXPECT_THROW(core::ConcurrentEdge(fast_config().with_shards(0).with_seed(1)),
               util::InvalidArgument);
}

// ------------------------------------------------------------ observability

TEST(Telemetry, FromRegistryReadsEdgeCounters) {
  obs::MetricsRegistry registry;
  registry.counter(core::edge_metrics::kTopReports).add(6);
  registry.counter(core::edge_metrics::kNomadicReports).add(3);
  const core::EdgeTelemetry t = core::EdgeTelemetry::from_registry(registry);
  // requests is derived, not stored: always top + nomadic.
  EXPECT_EQ(t.requests, 9u);
  EXPECT_EQ(t.top_reports, 6u);
  EXPECT_EQ(t.nomadic_reports, 3u);
  EXPECT_DOUBLE_EQ(t.top_report_ratio(), 6.0 / 9.0);
}

TEST(EdgeDevice, ServeLatencySamplesOneInStrideRequests) {
  core::EdgeDevice device(fast_config().with_seed(42));
  const std::uint64_t requests = 2 * core::kServeLatencySampleStride + 3;
  for (std::uint64_t i = 0; i < requests; ++i) {
    EXPECT_TRUE(
        device.serve(1 + i % 3, {0, 0}, static_cast<trace::Timestamp>(i))
            .released());
  }
  // Samples land at call 0, stride, 2*stride, ... => ceil(requests/stride).
  const obs::LatencyHistogram& latency =
      device.metrics().histogram(core::edge_metrics::kServeLatencyUs);
  EXPECT_EQ(latency.count(), 3u);
  EXPECT_EQ(latency.invalid(), 0u);
  EXPECT_GE(latency.quantile(0.99), 0.0);
}

TEST(ConcurrentEdge, RegistryTracksRequestsLatencyAndShardLocks) {
  core::ConcurrentEdge edge(fast_config().with_shards(4).with_seed(42));
  trace::SyntheticConfig synth;
  synth.min_check_ins = 20;
  synth.max_check_ins = 60;
  const rng::Engine parent(7);
  const auto population = trace::generate_population(parent, synth, 12);
  std::vector<trace::UserTrace> traces;
  traces.reserve(population.size());
  for (const trace::SyntheticUser& user : population) {
    traces.push_back(user.trace);
  }

  par::ThreadPool pool(4);
  const core::BatchServeStats stats = edge.serve_trace_batch(traces, pool);

  // Each shard device samples one request in kServeLatencySampleStride
  // (starting with its first), so across 4 shards the sample count is
  // requests/stride rounded up per shard.
  const obs::LatencyHistogram& latency =
      edge.metrics().histogram(core::edge_metrics::kServeLatencyUs);
  EXPECT_GE(latency.count(), stats.requests / core::kServeLatencySampleStride);
  EXPECT_LE(latency.count(),
            stats.requests / core::kServeLatencySampleStride + 4);

  // Every request took a shard lock at least once; the per-shard
  // acquisition counters must account for all of them.
  std::uint64_t acquisitions = 0;
  for (int s = 0; s < 4; ++s) {
    acquisitions += edge.metrics().counter_value(
        "edge.shard" + std::to_string(s) + ".lock_acquisitions");
  }
  EXPECT_GE(acquisitions, stats.requests);

  // The lock-free telemetry rollup reads the same registry.
  EXPECT_EQ(edge.telemetry().requests, stats.requests);

  // serve_trace_batch exports the pool gauges into the edge registry.
  EXPECT_NE(edge.metrics().to_string().find("pool.tasks_executed: "),
            std::string::npos);
}

}  // namespace
}  // namespace privlocad
