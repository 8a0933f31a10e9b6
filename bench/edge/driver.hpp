// The benchmark's open-loop load driver.
//
// Open loop: request i is due at plan[i].at_s whatever the server is
// doing, and its latency is measured from that scheduled instant, so a
// stall is charged to every request it delays (no coordinated omission).
//
// The driver is event-driven on one thread: ppoll sleeps exactly until
// the next send deadline or a readable socket (1 us timer slack), all
// requests due at a wake-up are encoded and written with one send() per
// connection, and per-request state lives in flat arrays indexed by plan
// id. Each user's requests go to one connection (user id modulo the
// connection count), so per-user order holds end to end and a shed-free
// run serves exactly what an in-process replay of the same plan serves.
//
// It records for every request the scheduled, first-send and response
// times, and reports its own lateness (first send minus scheduled) and
// CPU, so a probe whose generator could not keep up is visible as such.
// net::run_open_loop stays as the library's test harness; this driver
// exists because the benchmark needs the extra timestamps and must not
// change src/net.
//
// run_saturation is the closed-loop counterpart that measures how many
// requests per second the server completes when it is never idle.
#pragma once

#include <cstdint>
#include <vector>

#include "net/load_model.hpp"
#include "spans.hpp"

namespace privlocad::edgebench {

struct DriverConfig {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  /// Requests scheduled before this many seconds are a warm-up: sent and
  /// checked like the rest but left out of every timed statistic.
  double warmup_s = 0.5;
  /// How long to wait for outstanding responses after the last send.
  double drain_timeout_s = 2.0;
  /// Latency limit (from scheduled arrival) for within_slo.
  double slo_us = 5000.0;
  /// Non-null in the traced run: wire spans for sampled request ids.
  SpanRecorder* spans = nullptr;
};

struct DriverResult {
  // Accounting over every request of the plan (warm-up included).
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t released = 0;  ///< served, after retry, or cached replay
  std::uint64_t shed = 0;      ///< degraded_dropped (admission or serve)
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;  ///< sent but unanswered after the drain
  std::uint64_t wire_errors = 0;
  std::uint64_t raw_leaks = 0;
  /// Wrapping sum of response_hash() over every response.
  std::uint64_t digest = 0;

  // Timed requests only (scheduled at or after warmup_s).
  std::uint64_t timed_sent = 0;
  std::uint64_t timed_released = 0;
  std::uint64_t timed_shed = 0;
  std::uint64_t timed_failed = 0;
  std::uint64_t timed_missing = 0;
  std::uint64_t within_slo = 0;  ///< released within slo_us of schedule
  double timed_duration_s = 0.0;  ///< scheduled span of the timed part
  /// Latency of each released request by plan id; NaN when the request
  /// was a warm-up, not released, or unanswered.
  std::vector<float> latency_by_id;
  double lateness_p99_us = 0.0;
  double mean_send_to_response_us = 0.0;

  // Resource use over the timed window (first timed send to drain end).
  double driver_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  double driver_ctx_switches = 0.0;
  double process_ctx_switches = 0.0;

  /// Requests outstanding at the moment the last one was sent.
  std::uint64_t backlog_at_last_send = 0;
  bool connect_failed = false;

  /// served + shed + failed + missing == sent (released counts served).
  bool accounted() const {
    return released + shed + failed + missing == sent &&
           responses + missing == sent;
  }
  double server_cpu_s() const { return process_cpu_s - driver_cpu_s; }
};

/// Runs `plan` (sorted by at_s, request_id == index) against
/// 127.0.0.1:config.port.
DriverResult run_driver(const DriverConfig& config,
                        const std::vector<net::TimedRequest>& plan);

struct SaturationResult {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t released = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;
  std::uint64_t wire_errors = 0;
  std::uint64_t raw_leaks = 0;
  /// Released responses per second in each whole window after the
  /// warm-up.
  std::vector<double> window_rps;
  /// The share of the machine's CPU time the hypervisor stole in each of
  /// those windows (host_steal_s over window_s times the CPU count).
  std::vector<double> window_steal;
  bool connect_failed = false;

  bool accounted() const {
    return released + shed + failed + missing == sent &&
           responses + missing == sent;
  }
};

/// Closed loop at saturation: each connection keeps `window` requests in
/// flight, sending the next of its users' requests as soon as one is
/// answered, for config.warmup_s plus `duration_s` (cut into `window_s`
/// windows, each with the host steal it saw). Plan timing is ignored; the
/// plan is replayed in rounds, each shifting request times by the plan's
/// span so per-user time never goes back.
SaturationResult run_saturation(const DriverConfig& config,
                                const std::vector<net::TimedRequest>& plan,
                                std::size_t window, double duration_s,
                                double window_s);

}  // namespace privlocad::edgebench
