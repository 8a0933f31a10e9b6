// Open-loop server SLO bench: the maximum sustainable load of one
// edge_serverd box, and its behavior past saturation -- per IO backend.
//
// Protocol:
//   1. Boot an EdgeServer (in-process: same threads + sockets as the
//      daemon, minus process management) on the primary backend
//      (--backend=epoll|io_uring, default epoll so the committed
//      perf-guard baseline compares like against like) with a
//      Zipf-popular synthetic population.
//   2. Climb a geometric rps ladder (x2 per rung). Each rung drives a
//      Poisson open-loop plan and records client-observed latency
//      measured from the SCHEDULED arrival instant -- the offered load
//      never slows down to match the server, so there is no coordinated
//      omission hiding queueing delay.
//   3. The highest rung whose p99 meets the SLO with shed fraction
//      <= 1% is the reported max_sustainable_rps.
//   4. The SAME ladder runs against the other backend (when available)
//      so the record carries epoll_* and io_uring_* sustained rps + p99
//      side by side. io_uring_available says whether the io_uring
//      column is real or zero-filled.
//   5. A DIURNAL phase replays a time-of-day rate envelope (same mean
//      rate as the sustainable rung, sinusoidal peak/trough) against
//      the primary server: diurnal_* keys report the envelope the
//      server actually rode out.
//   6. One final BURSTY overload phase at ~4x the sustainable rate
//      verifies the saturation contract: bounded queues shed
//      deterministically (degraded_dropped), every request is accounted
//      for, and no raw coordinate crosses the wire.
//
// Emits BENCH_server_slo.json (per-rung + summaries + the server's
// queue-delay/service-time split) for the perf_guard trajectory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/client.hpp"
#include "net/io_backend.hpp"
#include "net/load_model.hpp"
#include "net/server.hpp"

namespace privlocad {
namespace {

struct StepOutcome {
  double target_rps = 0.0;
  net::OpenLoopStats stats;
  bool sustainable = false;
};

StepOutcome run_plan(std::uint16_t port, const net::LoadPlanConfig& plan_config,
                     std::size_t connections, double slo_p99_us,
                     double max_shed_fraction) {
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(plan_config);

  net::OpenLoopConfig loop_config;
  loop_config.port = port;
  loop_config.connections = connections;

  StepOutcome outcome;
  outcome.target_rps = plan_config.target_rps;
  util::Result<net::OpenLoopStats> run =
      net::run_open_loop(loop_config, plan);
  if (!run.ok()) {
    std::fprintf(stderr, "open loop failed at %.0f rps: %s\n",
                 plan_config.target_rps, run.status().to_string().c_str());
    return outcome;
  }
  outcome.stats = run.value();
  outcome.sustainable = outcome.stats.responses > 0 &&
                        outcome.stats.missing == 0 &&
                        outcome.stats.latency_p99_us <= slo_p99_us &&
                        outcome.stats.shed_fraction() <= max_shed_fraction;
  return outcome;
}

StepOutcome run_step(std::uint16_t port, double target_rps,
                     double duration_s, std::size_t users,
                     std::size_t connections, std::uint64_t seed,
                     net::ArrivalProcess process, double slo_p99_us,
                     double max_shed_fraction) {
  net::LoadPlanConfig plan_config;
  plan_config.target_rps = target_rps;
  plan_config.duration_s = duration_s;
  plan_config.process = process;
  plan_config.users = users;
  plan_config.seed = seed;
  return run_plan(port, plan_config, connections, slo_p99_us,
                  max_shed_fraction);
}

struct LadderOutcome {
  double sustainable_rps = 0.0;
  double sustainable_p99_us = 0.0;
  std::uint64_t steps = 0;
};

/// Climbs the geometric rps ladder against `port` and prints one row per
/// rung. When `metrics` is non-null, per-rung step<N>_* keys are emitted
/// (the primary ladder only; the comparison ladder stays summary-only).
LadderOutcome run_ladder(std::uint16_t port, double min_rps, double max_rps,
                         double duration_s, std::size_t users,
                         std::size_t connections, std::uint64_t seed,
                         double slo_p99_us, double max_shed_fraction,
                         bench::JsonMetrics* metrics) {
  std::printf("\n%10s %10s %10s %10s %10s %8s %6s\n", "target", "achieved",
              "p50_us", "p99_us", "shed", "missing", "ok");
  LadderOutcome outcome;
  double first_achieved = 0.0;
  for (double rps = min_rps; rps <= max_rps; rps *= 2.0) {
    const StepOutcome step =
        run_step(port, rps, duration_s, users, connections,
                 seed + outcome.steps, net::ArrivalProcess::kPoisson,
                 slo_p99_us, max_shed_fraction);
    ++outcome.steps;
    if (metrics != nullptr) {
      const std::string prefix = "step" + std::to_string(outcome.steps);
      metrics->add(prefix + "_target_rps", step.target_rps);
      metrics->add(prefix + "_achieved_rps", step.stats.achieved_rps);
      metrics->add(prefix + "_p99_us", step.stats.latency_p99_us);
      metrics->add(prefix + "_shed", step.stats.degraded_dropped);
      metrics->add(prefix + "_missing", step.stats.missing);
    }
    std::printf("%10.0f %10.0f %10.0f %10.0f %10llu %8llu %6s\n",
                step.target_rps, step.stats.achieved_rps,
                step.stats.latency_p50_us, step.stats.latency_p99_us,
                static_cast<unsigned long long>(
                    step.stats.degraded_dropped),
                static_cast<unsigned long long>(step.stats.missing),
                step.sustainable ? "yes" : "NO");
    if (outcome.steps == 1) first_achieved = step.stats.achieved_rps;
    if (step.sustainable) {
      outcome.sustainable_rps = step.stats.achieved_rps;
      outcome.sustainable_p99_us = step.stats.latency_p99_us;
    } else {
      break;  // the ladder has found the knee
    }
  }
  if (outcome.sustainable_rps == 0.0) {
    // Even the lowest rung missed the SLO (tiny CI boxes): report the
    // first rung's achieved rate so the guard still has a trajectory.
    outcome.sustainable_rps = first_achieved;
  }
  return outcome;
}

std::unique_ptr<net::EdgeServer> make_server(
    const core::EdgeConfig& edge_config,
    const net::ServerConfig& server_config) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, server_config);
  if (!created.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 created.status().to_string().c_str());
    return nullptr;
  }
  std::unique_ptr<net::EdgeServer> server = std::move(created.value());
  if (util::Status s = server->start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 s.to_string().c_str());
    return nullptr;
  }
  return server;
}

}  // namespace
}  // namespace privlocad

int main(int argc, char** argv) {
  using namespace privlocad;

  const std::uint64_t users = bench::flag_or(argc, argv, "users", 2000);
  const std::uint64_t workers = bench::flag_or(argc, argv, "workers", 2);
  const std::uint64_t queue_capacity =
      bench::flag_or(argc, argv, "queue-capacity", 256);
  const std::uint64_t connections =
      bench::flag_or(argc, argv, "connections", 4);
  const std::uint64_t min_rps = bench::flag_or(argc, argv, "min-rps", 500);
  const std::uint64_t max_rps =
      bench::flag_or(argc, argv, "max-rps", 64000);
  const std::uint64_t step_ms = bench::flag_or(argc, argv, "step-ms", 1000);
  const std::uint64_t slo_p99_us =
      bench::flag_or(argc, argv, "slo-p99-us", 20000);
  const std::uint64_t overload_factor =
      bench::flag_or(argc, argv, "overload-factor", 4);
  const std::uint64_t seed = bench::flag_or(argc, argv, "seed", 1);
  // The primary ladder defaults to epoll so the committed perf-guard
  // baseline (measured on epoll) keeps comparing like against like; the
  // io_uring column comes from the comparison ladder below.
  const std::string backend_name =
      bench::string_flag_or(argc, argv, "backend", "epoll");
  const double max_shed_fraction = 0.01;

  util::Result<net::IoBackendKind> backend =
      net::parse_io_backend_kind(backend_name.c_str());
  if (!backend.ok()) {
    std::fprintf(stderr, "bench_server_slo: %s\n",
                 backend.status().to_string().c_str());
    return 1;
  }

  bench::print_header(
      "Open-loop server SLO: max sustainable load of one edge box");
  std::printf("users=%llu workers=%llu queue=%llu conns=%llu "
              "backend=%s SLO p99 <= %llu us, shed <= %.0f%%\n",
              static_cast<unsigned long long>(users),
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(queue_capacity),
              static_cast<unsigned long long>(connections),
              backend_name.c_str(),
              static_cast<unsigned long long>(slo_p99_us),
              max_shed_fraction * 100.0);

  core::EdgeConfig edge_config;
  edge_config.seed = seed;
  edge_config.shards = 4;

  const net::ServerConfig base_config =
      net::ServerConfig{}
          .with_workers(static_cast<std::size_t>(workers))
          .with_queue_capacity(static_cast<std::size_t>(queue_capacity));

  std::unique_ptr<net::EdgeServer> server =
      make_server(edge_config, base_config.with_backend(backend.value()));
  if (server == nullptr) return 1;
  const net::IoBackendKind primary_kind = server->backend_kind();

  const double duration_s = static_cast<double>(step_ms) / 1000.0;
  bench::JsonMetrics metrics;
  metrics.add_string("bench", "server_slo");
  metrics.add("users", users);
  metrics.add("workers", workers);
  metrics.add("queue_capacity", queue_capacity);
  metrics.add("slo_p99_us", slo_p99_us);
  metrics.add_string("backend", net::io_backend_kind_name(primary_kind));

  std::printf("\n-- primary ladder (%s) --\n",
              net::io_backend_kind_name(primary_kind));
  const LadderOutcome primary = run_ladder(
      server->port(), static_cast<double>(min_rps),
      static_cast<double>(max_rps), duration_s,
      static_cast<std::size_t>(users), static_cast<std::size_t>(connections),
      seed, static_cast<double>(slo_p99_us), max_shed_fraction, &metrics);
  metrics.add("steps", primary.steps);
  metrics.add("max_sustainable_rps", primary.sustainable_rps);
  metrics.add("max_sustainable_p99_us", primary.sustainable_p99_us);

  // Per-backend comparison: rerun the identical ladder (same seeds, same
  // plans) on the OTHER backend so the record reports both columns. The
  // io_uring column zero-fills when the kernel rejects the ring, and
  // io_uring_available says which case this record is.
  const bool io_uring_ok =
      net::io_uring_compiled_in() && net::io_uring_available();
  metrics.add("io_uring_available",
              static_cast<std::uint64_t>(io_uring_ok ? 1 : 0));
  const net::IoBackendKind other_kind =
      primary_kind == net::IoBackendKind::kEpoll
          ? net::IoBackendKind::kIoUring
          : net::IoBackendKind::kEpoll;
  LadderOutcome other;
  bool ran_other = false;
  if (other_kind == net::IoBackendKind::kIoUring && !io_uring_ok) {
    std::printf("\n-- comparison ladder (io_uring): unavailable, "
                "zero-filled --\n");
  } else {
    std::printf("\n-- comparison ladder (%s) --\n",
                net::io_backend_kind_name(other_kind));
    std::unique_ptr<net::EdgeServer> other_server =
        make_server(edge_config, base_config.with_backend(other_kind));
    if (other_server == nullptr) return 1;
    other = run_ladder(other_server->port(), static_cast<double>(min_rps),
                       static_cast<double>(max_rps), duration_s,
                       static_cast<std::size_t>(users),
                       static_cast<std::size_t>(connections), seed,
                       static_cast<double>(slo_p99_us), max_shed_fraction,
                       nullptr);
    other_server->stop();
    ran_other = true;
  }
  const LadderOutcome& epoll_outcome =
      primary_kind == net::IoBackendKind::kEpoll ? primary : other;
  const LadderOutcome& uring_outcome =
      primary_kind == net::IoBackendKind::kIoUring ? primary : other;
  metrics.add("epoll_max_sustainable_rps", epoll_outcome.sustainable_rps);
  metrics.add("epoll_max_sustainable_p99_us",
              epoll_outcome.sustainable_p99_us);
  metrics.add("io_uring_max_sustainable_rps", uring_outcome.sustainable_rps);
  metrics.add("io_uring_max_sustainable_p99_us",
              uring_outcome.sustainable_p99_us);
  std::printf("\nbackends: epoll %.0f rps (p99 %.0f us) | io_uring %s%.0f "
              "rps (p99 %.0f us)\n",
              epoll_outcome.sustainable_rps,
              epoll_outcome.sustainable_p99_us,
              io_uring_ok || ran_other ? "" : "[unavailable] ",
              uring_outcome.sustainable_rps,
              uring_outcome.sustainable_p99_us);

  // Diurnal phase: a time-of-day envelope at the sustainable MEAN rate
  // (one full synthetic day over the phase). The server should ride the
  // peak without missing responses; the record keeps the envelope it was
  // actually offered.
  net::LoadPlanConfig diurnal_config;
  diurnal_config.target_rps =
      std::max(primary.sustainable_rps, static_cast<double>(min_rps));
  diurnal_config.duration_s = duration_s;
  diurnal_config.process = net::ArrivalProcess::kDiurnal;
  diurnal_config.diurnal_period_s = duration_s;
  diurnal_config.users = static_cast<std::size_t>(users);
  diurnal_config.seed = seed + 500;
  const double diurnal_peak_rps = net::diurnal_rate_rps(
      diurnal_config, 0.25 * diurnal_config.diurnal_period_s);
  const double diurnal_trough_rps = net::diurnal_rate_rps(
      diurnal_config, 0.75 * diurnal_config.diurnal_period_s);
  const StepOutcome diurnal = run_plan(
      server->port(), diurnal_config, static_cast<std::size_t>(connections),
      static_cast<double>(slo_p99_us), max_shed_fraction);
  std::printf("\ndiurnal (mean %.0f rps, peak %.0f, trough %.0f): achieved "
              "%.0f rps, p99 %.0f us, shed %.1f%%, missing %llu\n",
              diurnal_config.target_rps, diurnal_peak_rps,
              diurnal_trough_rps, diurnal.stats.achieved_rps,
              diurnal.stats.latency_p99_us,
              diurnal.stats.shed_fraction() * 100.0,
              static_cast<unsigned long long>(diurnal.stats.missing));
  metrics.add("diurnal_offered_rps", diurnal.stats.offered_rps);
  metrics.add("diurnal_achieved_rps", diurnal.stats.achieved_rps);
  metrics.add("diurnal_peak_rps", diurnal_peak_rps);
  metrics.add("diurnal_trough_rps", diurnal_trough_rps);
  metrics.add("diurnal_p99_us", diurnal.stats.latency_p99_us);
  metrics.add("diurnal_shed_fraction", diurnal.stats.shed_fraction());
  metrics.add("diurnal_missing", diurnal.stats.missing);

  // Overload phase: bursty arrivals at overload_factor times the
  // sustainable rate. The contract under test: no crash, bounded queues
  // (sheds counted as degraded_dropped), full accounting, zero leaks.
  const double overload_rps =
      primary.sustainable_rps * static_cast<double>(overload_factor);
  const StepOutcome overload = run_step(
      server->port(), overload_rps, duration_s,
      static_cast<std::size_t>(users),
      static_cast<std::size_t>(connections), seed + 1000,
      net::ArrivalProcess::kBursty, static_cast<double>(slo_p99_us),
      max_shed_fraction);
  std::printf("\noverload (bursty, %.0fx): offered %.0f rps, achieved "
              "%.0f rps, p99 %.0f us, shed %llu (%.1f%%), leaks %llu, "
              "missing %llu\n",
              static_cast<double>(overload_factor),
              overload.stats.offered_rps, overload.stats.achieved_rps,
              overload.stats.latency_p99_us,
              static_cast<unsigned long long>(
                  overload.stats.degraded_dropped),
              overload.stats.shed_fraction() * 100.0,
              static_cast<unsigned long long>(overload.stats.raw_leaks),
              static_cast<unsigned long long>(overload.stats.missing));
  metrics.add("overload_offered_rps", overload.stats.offered_rps);
  metrics.add("overload_achieved_rps", overload.stats.achieved_rps);
  metrics.add("overload_p99_us", overload.stats.latency_p99_us);
  metrics.add("overload_shed_fraction", overload.stats.shed_fraction());
  metrics.add("overload_degraded_dropped",
              overload.stats.degraded_dropped);
  metrics.add("overload_raw_leaks", overload.stats.raw_leaks);
  metrics.add("overload_responses", overload.stats.responses);
  metrics.add("overload_missing", overload.stats.missing);

  // The server-side latency split: time queued vs time serving.
  bench::add_latency_percentiles(
      metrics, "net_queue_delay_us",
      server->metrics().histogram(net::net_metrics::kQueueDelayUs));
  bench::add_latency_percentiles(
      metrics, "net_service_time_us",
      server->metrics().histogram(net::net_metrics::kServiceTimeUs));

  server->stop();

  if (overload.stats.raw_leaks != 0) {
    std::fprintf(stderr, "FAIL: raw coordinates leaked under overload\n");
    return 1;
  }
  if (overload.stats.responses + overload.stats.missing !=
      overload.stats.sent) {
    std::fprintf(stderr, "FAIL: requests unaccounted for\n");
    return 1;
  }
  return bench::emit_json("BENCH_server_slo.json", metrics) ? 0 : 1;
}
