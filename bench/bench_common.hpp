// Shared helpers for the reproduction benches.
//
// Every bench prints a paper-style table to stdout. Workload sizes default
// to paper scale where feasible on one core and are overridable through
// argv ("--users=N", "--trials=N") so CI can run quick smoke passes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/deobfuscation.hpp"
#include "attack/evaluation.hpp"
#include "lppm/mechanism.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace privlocad::bench {

/// Parses "--name=value" integer flags; returns `fallback` when absent.
inline std::uint64_t flag_or(int argc, char** argv, const std::string& name,
                             std::uint64_t fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stoull(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

/// Parses "--name=value" string flags; returns `fallback` when absent.
inline std::string string_flag_or(int argc, char** argv,
                                  const std::string& name,
                                  const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// Prints a separator + header line for a paper artifact.
inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Runs the longitudinal attack against `mechanism`-obfuscated check-ins of
/// every user and accumulates top-1/top-2 success rates at 200 m and 500 m
/// (the Fig. 6 protocol). Every check-in is obfuscated independently for
/// one-time mechanisms; for permanent mechanisms the caller should pass
/// already-obfuscated observations instead (see bench_fig6).
struct AttackProtocolResult {
  attack::SuccessRateAccumulator rates{2, {200.0, 500.0}};
};

/// The de-obfuscation configuration the paper's attack uses: r_alpha at
/// alpha = 0.05 from the mechanism's tail, connectivity threshold scaled
/// to the noise magnitude.
inline attack::DeobfuscationConfig attack_config_for(
    const lppm::Mechanism& mechanism, std::size_t top_n) {
  attack::DeobfuscationConfig config;
  config.trim_radius_m = mechanism.tail_radius(0.05);
  config.connectivity_threshold_m = config.trim_radius_m / 4.0;
  config.top_n = top_n;
  return config;
}

/// The perf-baseline records every bench writes (BENCH_<name>.json) are
/// built with the shared obs::JsonWriter: same flat one-key-per-line
/// schema the metrics registry exports, so registry dumps and bench
/// records diff with the same tooling.
using JsonMetrics = obs::JsonWriter;

/// Appends histogram percentiles to `metrics` under `prefix` using the
/// same `<prefix>_count/_p50/_p95/_p99` key family the registry export
/// emits, so bench records stay schema-compatible with registry dumps.
inline void add_latency_percentiles(JsonMetrics& metrics,
                                    const std::string& prefix,
                                    const obs::LatencyHistogram& histogram) {
  metrics.add(prefix + "_count", histogram.count());
  metrics.add(prefix + "_p50", histogram.quantile(0.50));
  metrics.add(prefix + "_p95", histogram.quantile(0.95));
  metrics.add(prefix + "_p99", histogram.quantile(0.99));
}

/// Comma-separated runtime CPU feature list ("sse4.2,avx,avx2,fma,...")
/// for perf-record provenance: BENCH_*.json numbers are only comparable
/// across machines when the records say what the machines were.
inline std::string cpu_features_string() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  const auto append = [&out](bool supported, const char* name) {
    if (!supported) return;
    if (!out.empty()) out += ',';
    out += name;
  };
  // __builtin_cpu_supports takes only string literals, hence the unroll.
  append(__builtin_cpu_supports("sse2") != 0, "sse2");
  append(__builtin_cpu_supports("sse4.2") != 0, "sse4.2");
  append(__builtin_cpu_supports("avx") != 0, "avx");
  append(__builtin_cpu_supports("avx2") != 0, "avx2");
  append(__builtin_cpu_supports("fma") != 0, "fma");
  append(__builtin_cpu_supports("avx512f") != 0, "avx512f");
#endif
  if (out.empty()) out = "none";
  return out;
}

/// Writes `metrics` as one flat JSON object to `path` (typically
/// "BENCH_<name>.json" in the working directory). These records are the
/// perf trajectory future changes regress against: wall time, throughput,
/// thread count, and whatever accuracy numbers prove the speedup did not
/// change the result. Every record also carries build provenance --
/// compiler, flags and detected CPU features -- so two baselines that
/// disagree can be told apart by how they were built, not just when.
/// Also dumps the process-global metrics registry to $PRIVLOCAD_METRICS
/// when that variable is set, so one run can leave both the bench record
/// and the full registry behind. Returns false (and warns on stderr) on
/// IO failure.
inline bool emit_json(const std::string& path, const JsonMetrics& metrics) {
  JsonMetrics stamped = metrics;
  stamped.add_string("build_compiler", __VERSION__);
#ifdef PRIVLOCAD_BUILD_FLAGS
  stamped.add_string("build_flags", PRIVLOCAD_BUILD_FLAGS);
#else
  stamped.add_string("build_flags", "unknown");
#endif
  stamped.add_string("cpu_features", cpu_features_string());
  const bool ok = stamped.write_file(path);
  if (ok) std::printf("perf record -> %s\n", path.c_str());
  obs::MetricsRegistry::global().export_to_env_path();
  return ok;
}

/// Current resident-set size of this process in bytes (VmRSS from
/// /proc/self/status), or 0 where procfs is unavailable. Memory-footprint
/// ground truth for the mega-scale benches: heap counters miss allocator
/// slack, the RSS does not.
inline std::uint64_t resident_set_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kib)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

/// Synthetic population matching the paper's dataset shape, at a
/// configurable scale (users / max check-ins) so benches stay tractable on
/// one core. Statistical shape is preserved; see DESIGN.md section 2.
inline std::vector<trace::SyntheticUser> bench_population(
    std::uint64_t seed, std::size_t users, std::uint64_t max_check_ins) {
  trace::SyntheticConfig config;
  config.max_check_ins = max_check_ins;
  const rng::Engine parent(seed);
  return trace::generate_population(parent, config, users);
}

}  // namespace privlocad::bench
