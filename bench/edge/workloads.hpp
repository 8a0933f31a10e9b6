// The four benchmark workloads and what a run reports.
//
//   steady_wire    steady population, Poisson open loop over loopback
//   steady_inproc  the same request sequence, closed loop, in process
//   churn_inproc   two-year traces replayed through serve_trace_batch
//   overload_wire  steady population, bursty open loop past the knee
//
// An untraced run reports the end-to-end metrics; a traced run reruns the
// workload's fixed points once with spans and reports the per-layer
// metrics. Both report the same names on every workload (README.md says
// what each one means per workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace privlocad::edgebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: metrics, the correctness verdict, and how many
/// timed operations were attempted and failed. `notes` are measurements
/// kept in the run's JSON record but not reported as metrics.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const char* unit) {
    notes.push_back({name, value, unit});
  }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

bool known_workload(const std::string& name);

/// Runs options.workload; `spans` is non-null exactly when tracing.
/// `out_dir` receives the snapshot file.
void run_workload(const Options& options, const std::string& out_dir,
                  SpanRecorder* spans, Report& report);

}  // namespace privlocad::edgebench
