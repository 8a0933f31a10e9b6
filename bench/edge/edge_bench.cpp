// edge_bench: one workload of the edge benchmark per process.
//
//   edge_bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//              [--quick]
//
// Prints one "workload metric value unit" line per metric, writes a flat
// JSON record (BENCH_edge_<workload>.json) and, when tracing, the span
// files (trace_<workload>.json + trace_<workload>_self.tsv) under out/
// next to the binary, and ends stdout with one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every correctness gate passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "net/io_backend.hpp"
#include "workloads.hpp"

namespace {

using privlocad::edgebench::Options;
using privlocad::edgebench::Report;

void usage() {
  std::fprintf(stderr,
               "usage: edge_bench --workload <steady_wire|steady_inproc|"
               "churn_inproc|overload_wire> --seed <n> [--seconds <s>] "
               "[--trace <0|1>] [--quick]\n");
}

/// Accepts "--name value" and "--name=value".
bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      options.quick = true;
      continue;
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return privlocad::edgebench::known_workload(options.workload) &&
         options.seconds > 0.0 && std::isfinite(options.seconds);
}

/// Settings that would silently change what is measured.
bool environment_is_clean() {
  bool clean = true;
  for (const char* name :
       {"PRIVLOCAD_NET_BACKEND", "PRIVLOCAD_SIMD", "PRIVLOCAD_SAMPLER",
        "PRIVLOCAD_FAULTS", "PRIVLOCAD_THREADS"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "edge_bench: refusing to run with %s set\n", name);
      clean = false;
    }
  }
  return clean;
}

std::string out_dir() {
  std::error_code error;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", error);
  const std::filesystem::path dir =
      (error ? std::filesystem::path(".") : exe.parent_path()) / "out";
  std::filesystem::create_directories(dir, error);
  return dir.string();
}

void print_result(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    // A non-finite value already failed the run; keep the line valid JSON.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privlocad;
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }
  if (!environment_is_clean()) return 2;

  const std::string dir = out_dir();
  std::unique_ptr<edgebench::SpanRecorder> spans;
  if (options.trace) {
    spans = std::make_unique<edgebench::SpanRecorder>(std::size_t{1} << 19);
  }
  Report report;
  edgebench::run_workload(options, dir, spans.get(), report);

  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) report.fail(m.name + " is not finite");
  }
  if (report.attempted == 0) report.fail("nothing was attempted");

  const std::string suffix = options.trace ? "_traced" : "";
  bench::JsonMetrics record;
  record.add_string("bench", "edge");
  record.add_string("workload", options.workload);
  record.add("seed", options.seed);
  record.add("seconds", options.seconds);
  record.add("traced", static_cast<std::uint64_t>(options.trace ? 1 : 0));
  record.add("quick", static_cast<std::uint64_t>(options.quick ? 1 : 0));
  record.add("correct", static_cast<std::uint64_t>(report.correct ? 1 : 0));
  record.add("attempted", report.attempted);
  record.add("failed", report.failed);
  for (const auto& m : report.metrics) {
    std::printf("%s %s %.6g %s\n", options.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    if (std::isfinite(m.value)) record.add(m.name, m.value);
  }
  for (const auto& m : report.notes) {
    if (std::isfinite(m.value)) record.add(m.name, m.value);
  }
  const util::Result<net::IoBackendKind> backend =
      net::resolve_io_backend(net::IoBackendKind::kAuto);
  record.add_string("net_backend",
                    backend.ok() ? net::io_backend_kind_name(backend.value())
                                 : "unavailable");
  record.add("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  if (!bench::emit_json(dir + "/BENCH_edge_" + options.workload + suffix +
                            ".json",
                        record)) {
    report.fail("could not write the JSON record");
  }
  if (spans != nullptr) {
    const std::string base = dir + "/trace_" + options.workload;
    if (!spans->write_chrome_trace(base + ".json") ||
        !spans->write_self_time_table(base + "_self.tsv")) {
      report.fail("could not write the trace files");
    }
  }
  std::fflush(stdout);
  print_result(report);
  return report.correct ? 0 : 1;
}
