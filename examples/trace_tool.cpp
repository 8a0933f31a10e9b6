// trace_tool: dataset utility for the synthetic mobility traces.
//
// Subcommands:
//   generate <users> <out.csv>        -- synthesize a population and write
//                                        local-metric CSV
//   export-geo <in.csv> <out.csv>     -- convert a local-metric trace file
//                                        to lat/lon (Shanghai projection)
//   stats <in.csv>                    -- per-population profile statistics
//
// This is the workflow a researcher uses to materialize the paper's
// dataset substitute once and share it between experiments.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>

#include "attack/profile.hpp"
#include "stats/quantiles.hpp"
#include "stats/running_stats.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/strings.hpp"

namespace {

using namespace privlocad;

int cmd_generate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: trace_tool generate <users> <out.csv>\n");
    return 2;
  }
  const auto users = util::parse_int_in(
      argv[2], 1, std::numeric_limits<long long>::max());
  if (!users) {
    std::fprintf(stderr,
                 "trace_tool: users needs a positive integer, got '%s'\n",
                 argv[2]);
    return 2;
  }
  trace::SyntheticConfig config;
  config.max_check_ins = 2000;  // keep generated files manageable
  const rng::Engine parent(20240601);
  const auto population = trace::generate_population(
      parent, config, static_cast<std::size_t>(*users));

  std::vector<trace::UserTrace> traces;
  traces.reserve(population.size());
  std::size_t total = 0;
  for (const trace::SyntheticUser& u : population) {
    total += u.trace.check_ins.size();
    traces.push_back(u.trace);
  }
  trace::write_traces_file(argv[3], traces);
  std::printf("wrote %zu users, %zu check-ins to %s\n", traces.size(), total,
              argv[3]);
  return 0;
}

int cmd_export_geo(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: trace_tool export-geo <in.csv> <out.csv>\n");
    return 2;
  }
  const auto traces = trace::read_traces_file(argv[2]);
  std::ofstream out(argv[3]);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", argv[3]);
    return 1;
  }
  trace::write_traces_geo(out, traces, geo::shanghai_projection());
  std::printf("exported %zu users to geographic CSV %s\n", traces.size(),
              argv[3]);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: trace_tool stats <in.csv>\n");
    return 2;
  }
  const auto traces = trace::read_traces_file(argv[2]);
  stats::RunningStats check_ins, entropies, locations;
  std::vector<double> entropy_values;
  for (const trace::UserTrace& t : traces) {
    check_ins.add(static_cast<double>(t.check_ins.size()));
    const attack::LocationProfile profile = attack::build_profile(t);
    if (profile.empty()) continue;
    locations.add(static_cast<double>(profile.size()));
    entropies.add(profile.entropy());
    entropy_values.push_back(profile.entropy());
  }
  std::printf("users                 : %zu\n", traces.size());
  std::printf("check-ins per user    : mean %.0f, min %.0f, max %.0f\n",
              check_ins.mean(), check_ins.min(), check_ins.max());
  std::printf("locations per profile : mean %.1f\n", locations.mean());
  std::printf("entropy               : mean %.3f, median %.3f\n",
              entropies.mean(), stats::quantile(entropy_values, 0.5));
  std::size_t below = 0;
  for (const double h : entropy_values) {
    if (h < 2.0) ++below;
  }
  std::printf("entropy < 2 nats      : %.1f%%  (paper: 88.8%%)\n",
              100.0 * static_cast<double>(below) /
                  static_cast<double>(entropy_values.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_tool <generate|export-geo|stats> ...\n");
    return 2;
  }
  // A malformed or missing trace file ends in a message, not an abort.
  try {
    if (std::strcmp(argv[1], "generate") == 0) {
      return cmd_generate(argc, argv);
    }
    if (std::strcmp(argv[1], "export-geo") == 0) {
      return cmd_export_geo(argc, argv);
    }
    if (std::strcmp(argv[1], "stats") == 0) return cmd_stats(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_tool: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
  return 2;
}
