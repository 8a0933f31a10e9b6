// Small helpers shared by the edge benchmark's files: clocks, CPU, steal
// and memory probes, exact sample quantiles, and the order-independent
// response digest the wire-vs-in-process gate compares.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/edge_device.hpp"

namespace privlocad::edgebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time and context switches of the process or of the calling thread.
struct CpuSample {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

inline CpuSample cpu_sample(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  CpuSample sample;
  sample.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                 static_cast<double>(usage.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                            usage.ru_stime.tv_usec);
  sample.ctx_switches = static_cast<double>(usage.ru_nvcsw + usage.ru_nivcsw);
  return sample;
}

inline CpuSample process_cpu() { return cpu_sample(RUSAGE_SELF); }
inline CpuSample thread_cpu() { return cpu_sample(RUSAGE_THREAD); }

/// Peak resident set (VmHWM) of this process in MiB; 0 without procfs.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// CPU seconds the hypervisor has taken from this machine's CPUs since
/// boot, summed over CPUs (the `steal` field of /proc/stat); 0 without
/// procfs or on bare metal.
inline double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long user, nice, system, idle, iowait, irq, softirq;
  unsigned long long steal = 0;
  const int fields =
      std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user,
                  &nice, &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(f);
  if (fields != 8) return 0.0;
  return static_cast<double>(steal) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Exact empirical quantile (nearest rank on the sorted sample); 0 when
/// empty. Reorders `samples`.
template <typename T>
double quantile_of(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

inline double median_of(std::vector<double> values) {
  return quantile_of(values, 0.5);
}

/// FNV-1a 64 over (id, outcome, kind, x, y) of one response. Responses
/// arrive in connection-interleaved order, so runs are compared through
/// the wrapping SUM of these per-response hashes, which is independent
/// of arrival order.
inline std::uint64_t response_hash(std::uint64_t id, std::uint8_t outcome,
                                   std::uint8_t kind, double x, double y) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(id);
  mix(outcome);
  mix(kind);
  mix(std::bit_cast<std::uint64_t>(x));
  mix(std::bit_cast<std::uint64_t>(y));
  return h;
}

/// The same hash for an in-process serve result, mirroring exactly what
/// the server puts on the wire (coordinates zeroed unless released).
inline std::uint64_t result_hash(std::uint64_t id,
                                 const core::ServeResult& result) {
  const bool released = result.released();
  return response_hash(id, static_cast<std::uint8_t>(result.outcome),
                       static_cast<std::uint8_t>(result.reported.kind),
                       released ? result.reported.location.x : 0.0,
                       released ? result.reported.location.y : 0.0);
}

}  // namespace privlocad::edgebench
