// The benchmark's inputs and the box they are served from.
//
// Everything here derives from the run's --seed: the synthetic users,
// the snapshot the box is opened from, and the request plans. The set-up
// pipeline is the same for every workload (generate -> import -> warm ->
// save -> open), so set-up time and every set-up phase is measured on
// every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "net/load_model.hpp"
#include "par/thread_pool.hpp"
#include "spans.hpp"
#include "trace/check_in.hpp"

namespace privlocad::edgebench {

/// The daemon's serving defaults with the paper's privacy parameters
/// (r = 500 m, eps = 1, delta = 0.01, n = 10 are the library defaults).
core::EdgeConfig edge_config(std::uint64_t seed);

struct PopulationSpec {
  std::size_t users = 0;
  /// false: 90-day histories, all imported (the steady population).
  /// true: full two-year traces; the first 90 days are imported and the
  /// rest is replayed live (the churn population).
  bool full_traces = false;
};

/// One synthetic user as the benchmark keeps it after set-up.
struct BenchUser {
  std::vector<geo::Point> anchors;  ///< true top locations, heaviest first
  std::vector<double> weights;      ///< their visit weights
};

struct Population {
  /// users[i] has user id i + 1 (the plan builder's Zipf rank + 1).
  std::vector<BenchUser> users;
  /// Imported histories of the first kModuleSampleUsers users, kept for
  /// the module replay; the rest are dropped after import.
  std::vector<trace::UserTrace> sample_histories;
  /// Churn only: each user's check-ins after the imported history.
  std::vector<trace::UserTrace> replay;
  trace::Timestamp history_end = 0;
};

inline constexpr std::size_t kModuleSampleUsers = 1000;

struct SetupTimes {
  double generate_s = 0.0;
  double import_s = 0.0;
  double warm_s = 0.0;
  double save_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
};

/// Generates the population and imports it into `box` (generate and
/// import interleave in chunks so raw traces never all sit in memory at
/// once), then serves every true top anchor once at history_end, which
/// freezes its n-fold candidate set. Records generate/import/warm times.
Population build_population(const PopulationSpec& spec, std::uint64_t seed,
                            core::ConcurrentEdge& box, par::ThreadPool& pool,
                            SetupTimes& times, SpanRecorder* spans);

/// Saves `box` to `path` and reports the time and file size.
bool save_box(core::ConcurrentEdge& box, const std::string& path,
              SetupTimes& times, SpanRecorder* spans);

struct PlanShape {
  double rate_rps = 10000.0;
  double duration_s = 1.0;
  net::ArrivalProcess process = net::ArrivalProcess::kPoisson;
  double burst_factor = 4.0;
  double burst_fraction = 0.25;
  double burst_period_s = 0.25;
};

/// net::build_open_loop_plan's arrival instants and Zipf(1.1) user ranks,
/// with each request's location replaced: 80% at one of the user's true
/// top anchors (weighted, +-20 m jitter), 20% at a uniform nomadic point.
/// Request times are history_end + 1 h + floor(at_s), so no profile
/// window closes during a run. Same (population, shape, seed) -> same
/// plan; a longer duration at the same rate extends it (prefix-stable).
std::vector<net::TimedRequest> build_plan(const Population& population,
                                          const PlanShape& shape,
                                          std::uint64_t seed);

/// What an in-process replay of a plan served.
struct InprocResult {
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< same definition as DriverResult::digest
  /// Wall time a serving thread spent on its share, averaged over the
  /// threads. A thread that finishes first does not wait for the others,
  /// so requests / busy_s is the rate while the threads serve; a lane
  /// with more requests than another only serves longer.
  double busy_s = 0.0;
  double cpu_s = 0.0;  ///< the serving threads' CPU over the replay
  /// Mean CPU seconds of a reference pass (reference.hpp) on the serving
  /// threads right before and after the replay; 0 when not timed.
  double reference_s = 0.0;
  std::vector<float> latency_us;  ///< per call, when timed
};

/// Serves plan[begin, end) closed-loop from `threads` threads calling
/// ConcurrentEdge::serve directly. Users are split across threads the
/// way net::EdgeServer splits them across its workers, so per-user order
/// holds and the threads never contend for a shard lock. When `timed`,
/// every call is timed, sampled ids get a core.serve span, and the
/// reference time is measured.
InprocResult serve_inproc(core::ConcurrentEdge& box,
                          const std::vector<net::TimedRequest>& plan,
                          std::size_t begin, std::size_t end,
                          std::size_t threads, bool timed,
                          SpanRecorder* spans);

/// Replays whole user traces through ConcurrentEdge::serve from `threads`
/// threads, timing every call. Each thread takes the users the server
/// would route to its worker, each user's check-ins in time order, so the
/// threads never contend for a shard lock. Users go in chunks, each
/// started on all threads together and bracketed by reference passes.
/// The bench's own counterpart of serve_trace_batch, used where per-call
/// latency is needed.
InprocResult replay_traces(core::ConcurrentEdge& box,
                           const std::vector<trace::UserTrace>& traces,
                           std::size_t threads);

}  // namespace privlocad::edgebench
