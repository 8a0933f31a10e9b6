// Throughput regression guard over the committed BENCH_*.json baselines.
//
//   perf_guard <current.json> <baseline.json> <field> [<field>...]
//
// Every <field> is a higher-is-better rate (requests/sec, samples/sec).
// The guard passes iff, for each field,
//
//   current >= baseline / PRIVLOCAD_PERF_TOLERANCE
//
// with a deliberately generous default tolerance (5x): CI boxes, shared
// runners, and sanitizer builds jitter wildly, so the guard only catches
// collapses (an accidentally serialized pool, a sampler falling off its
// fast path), not percent-level noise. Tighten the tolerance locally when
// hunting a specific regression. Exits 1 on a miss or a missing field,
// and 2 on a usage error, an unreadable file or a malformed tolerance;
// every comparison is printed either way.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace {

/// Extracts the numeric value of `"field": <number>` from a flat one-level
/// JSON object (the obs::JsonWriter schema). Not a general JSON parser:
/// the records the benches emit have no nesting and no string values that
/// could shadow a key.
std::optional<double> extract_field(const std::string& json,
                                    const std::string& field) {
  const std::string needle = "\"" + field + "\"";
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = json.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(json.c_str() + pos + 1, &end);
  if (end == json.c_str() + pos + 1) return std::nullopt;
  return value;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// PRIVLOCAD_PERF_TOLERANCE, or the 5x default when it is unset or
/// empty. Anything else that is not a finite number >= 1, consumed in
/// full, is refused: nullopt, after a message naming the variable. A
/// silently ignored or misread value ("2x", "inf") would move every
/// guard's floor without a trace.
std::optional<double> tolerance_from_env() {
  constexpr double kDefault = 5.0;
  const char* env = std::getenv("PRIVLOCAD_PERF_TOLERANCE");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const double parsed = std::strtod(env, &end);
  if (end == env || *end != '\0' || !std::isfinite(parsed) ||
      parsed < 1.0) {
    std::fprintf(stderr,
                 "perf_guard: invalid PRIVLOCAD_PERF_TOLERANCE \"%s\" "
                 "(need a finite number >= 1)\n",
                 env);
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: perf_guard <current.json> <baseline.json> "
                 "<field> [<field>...]\n");
    return 2;
  }
  const auto current = read_file(argv[1]);
  const auto baseline = read_file(argv[2]);
  if (!current) {
    std::fprintf(stderr, "perf_guard: cannot read %s\n", argv[1]);
    return 2;
  }
  if (!baseline) {
    std::fprintf(stderr, "perf_guard: cannot read %s\n", argv[2]);
    return 2;
  }

  const std::optional<double> tolerance_or = tolerance_from_env();
  if (!tolerance_or) return 2;
  const double tolerance = *tolerance_or;
  std::printf("perf_guard: %s vs baseline %s (tolerance %.2fx)\n", argv[1],
              argv[2], tolerance);

  int failures = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string field = argv[i];
    const auto now = extract_field(*current, field);
    const auto base = extract_field(*baseline, field);
    if (!now || !base) {
      std::fprintf(stderr, "perf_guard: field \"%s\" missing from %s\n",
                   field.c_str(), !now ? argv[1] : argv[2]);
      ++failures;
      continue;
    }
    const double floor = *base / tolerance;
    const bool ok = *now >= floor;
    std::printf("  %-34s %14.1f vs baseline %14.1f (floor %14.1f) %s\n",
                field.c_str(), *now, *base, floor, ok ? "OK" : "REGRESSED");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
