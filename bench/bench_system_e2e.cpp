// System-level end-to-end evaluation: the paper's Figure 6 defence row and
// Observation 1, measured through the REAL system path instead of the
// mechanism in isolation -- profile windows, eta-frequent sets, permanent
// obfuscation tables, posterior selection, nomadic fallback, ad matching,
// and edge-side filtering all engaged; the adversary reads the ad
// network's actual bid log.
// A second section drives the same population through one sharded
// ConcurrentEdge via serve_trace_batch on all available threads and
// reports requests/sec -- the system-level throughput number the paper's
// Tables II/III motivate.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/concurrent_edge.hpp"
#include "core/simulation.hpp"
#include "fault/fault.hpp"
#include "par/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace privlocad;

  const std::size_t users = bench::flag_or(argc, argv, "users", 150);
  // On single-core boxes hardware_threads() is 1, which makes the pool run
  // every batch task inline on the caller (tasks_executed stays 0) -- the
  // "batch phase" never actually exercised the pool. Default to at least
  // two threads so the throughput section always measures pooled serving;
  // --threads overrides for scaling sweeps.
  const std::size_t requested_threads = bench::flag_or(
      argc, argv, "threads",
      std::max<std::size_t>(2, par::hardware_threads()));

  bench::print_header(
      "System end-to-end -- Edge-PrivLocAd under the longitudinal attack (" +
      std::to_string(users) + " users, full request flow)");

  // PRIVLOCAD_FAULTS turns this bench into the fault-tolerance proof run:
  // every request must still end in a typed outcome (served / degraded),
  // never a leak or an uncaught exception.
  fault::FaultInjector& faults = fault::FaultInjector::global();
  if (faults.enabled()) {
    std::printf("%s\n\n", faults.plan().summary().c_str());
  }

  core::SimulationConfig config;
  config.user_count = users;
  config.edge.top_params.radius_m = 500.0;
  config.edge.top_params.epsilon = 1.0;
  config.edge.top_params.delta = 0.01;
  config.edge.top_params.n = 10;
  config.edge.management.window_seconds = 90 * trace::kSecondsPerDay;
  config.population.min_check_ins = 200;
  config.population.max_check_ins = 1500;
  config.advertiser_count = 2000;

  const core::SimulationResult result = core::run_simulation(config);

  std::printf("users                        : %zu\n", result.users);
  std::printf("live requests                : %zu\n", result.live_requests);
  std::printf("top-location report ratio    : %.1f%%\n",
              result.top_report_ratio * 100.0);
  std::printf("profile rebuilds             : %zu\n",
              result.telemetry.profile_rebuilds);
  std::printf("permanent tables generated   : %zu\n",
              result.telemetry.tables_generated);
  std::printf("ads matched per request      : %.2f\n",
              result.ads_matched_per_request);
  std::printf("ads delivered per request    : %.2f\n",
              result.ads_delivered_per_request);
  std::printf("edge filter drop ratio       : %.1f%%\n",
              result.telemetry.filter_drop_ratio() * 100.0);

  std::printf("\nlongitudinal attack on the real bid log:\n");
  std::printf("  top-1 within 200 m : %5.1f%%   (paper defence: < 1%%)\n",
              result.attack_rates.rate(0, 0) * 100.0);
  std::printf("  top-1 within 500 m : %5.1f%%   (paper defence: ~6.8%%)\n",
              result.attack_rates.rate(0, 1) * 100.0);
  std::printf("  top-2 within 200 m : %5.1f%%   (paper defence: < 1%%)\n",
              result.attack_rates.rate(1, 0) * 100.0);
  std::printf("  top-2 within 500 m : %5.1f%%   (paper defence: ~5%%)\n",
              result.attack_rates.rate(1, 1) * 100.0);

  // ---- batch serving throughput through one sharded edge box.
  const rng::Engine parent(31);
  const auto batch_population =
      trace::generate_population(parent, config.population, users);
  std::vector<trace::UserTrace> traces;
  traces.reserve(batch_population.size());
  for (const trace::SyntheticUser& user : batch_population) {
    traces.push_back(user.trace);
  }

  par::ThreadPool pool(requested_threads);
  // The pool may clamp the request; record what actually ran.
  const std::size_t threads = pool.thread_count();
  core::ConcurrentEdge edge(config.edge.with_shards(16).with_seed(31));
  const core::BatchServeStats batch = edge.serve_trace_batch(traces, pool);
  const obs::LatencyHistogram& serve_latency =
      edge.metrics().histogram(core::edge_metrics::kServeLatencyUs);
  const par::PoolStats pool_stats = pool.stats();
  std::printf("\nbatch serving (%zu threads, 16 shards):\n", threads);
  std::printf("  requests           : %zu\n", batch.requests);
  std::printf("  wall               : %.3fs\n", batch.wall_seconds);
  std::printf("  throughput         : %.0f req/s\n",
              batch.requests_per_second());
  std::printf("  serve latency      : p50 %.1fus  p95 %.1fus  p99 %.1fus\n",
              serve_latency.quantile(0.50), serve_latency.quantile(0.95),
              serve_latency.quantile(0.99));
  std::printf("  pool               : %llu tasks, %llu steals\n",
              static_cast<unsigned long long>(pool_stats.tasks_executed),
              static_cast<unsigned long long>(pool_stats.steals));

  // Fault-tolerance accounting for the batch (all zero with faults off).
  const core::EdgeTelemetry batch_telemetry = edge.telemetry();
  faults.publish(edge.metrics());
  std::printf("  outcomes           : %zu served, %zu degraded-cached, "
              "%zu dropped, %zu failed\n",
              batch.served, batch.degraded_cached, batch.degraded_dropped,
              batch.failed);
  if (faults.enabled()) {
    std::printf("  faults injected    : %llu\n",
                static_cast<unsigned long long>(faults.injected_total()));
  }
  // Every request ends in exactly one outcome, and injected faults degrade
  // a request rather than fail it.
  const bool outcomes_hold =
      batch.served + batch.degraded_cached + batch.degraded_dropped +
              batch.failed ==
          batch.requests &&
      batch.failed == 0;
  if (!outcomes_hold) {
    std::fprintf(stderr,
                 "outcome accounting broken: %zu requests, %zu failed\n",
                 batch.requests, batch.failed);
  }

  bench::JsonMetrics record;
  record.add_string("bench", "system_e2e");
  record.add("threads", static_cast<std::uint64_t>(threads));
  record.add("users", static_cast<std::uint64_t>(result.users));
  record.add("live_requests",
             static_cast<std::uint64_t>(result.live_requests));
  record.add("top_report_ratio", result.top_report_ratio);
  record.add("attack_top1_200m", result.attack_rates.rate(0, 0));
  record.add("attack_top1_500m", result.attack_rates.rate(0, 1));
  record.add("batch_requests", static_cast<std::uint64_t>(batch.requests));
  record.add("batch_wall_seconds", batch.wall_seconds);
  record.add("batch_requests_per_second", batch.requests_per_second());
  record.add("batch_served", static_cast<std::uint64_t>(batch.served));
  record.add("batch_degraded_cached",
             static_cast<std::uint64_t>(batch.degraded_cached));
  record.add("batch_degraded_dropped",
             static_cast<std::uint64_t>(batch.degraded_dropped));
  record.add("batch_failed", static_cast<std::uint64_t>(batch.failed));
  record.add("serve_degraded_cached",
             static_cast<std::uint64_t>(batch_telemetry.degraded_cached));
  record.add("serve_degraded_dropped",
             static_cast<std::uint64_t>(batch_telemetry.degraded_dropped));
  record.add("serve_failed",
             static_cast<std::uint64_t>(batch_telemetry.serve_failed));
  record.add("fault_injected_total", faults.injected_total());
  bench::add_latency_percentiles(record, "serve_latency_us", serve_latency);
  record.add("pool_tasks_executed", pool_stats.tasks_executed);
  record.add("pool_steals", pool_stats.steals);
  bench::emit_json("BENCH_system_e2e.json", record);
  return outcomes_hold ? 0 : 1;
}
