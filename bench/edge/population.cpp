#include "population.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <thread>

#include "common.hpp"
#include "reference.hpp"
#include "trace/synthetic.hpp"

namespace privlocad::edgebench {
namespace {

constexpr trace::Timestamp kHistorySeconds = 90 * trace::kSecondsPerDay;
/// The steady population's 90-day histories keep the dataset's per-day
/// check-in rate: 11,435 check-ins over two years scales to ~1,410.
constexpr std::uint64_t kSteadyMaxCheckIns = 1410;
constexpr std::size_t kChunkUsers = 2048;
constexpr double kAnchorShare = 0.8;
constexpr double kAnchorJitterM = 20.0;
/// Users per calibrated chunk of a trace replay: ~80k requests, ~0.1 s.
constexpr std::size_t kReplayChunkUsers = 50;

}  // namespace

core::EdgeConfig edge_config(std::uint64_t seed) {
  core::EdgeConfig config;
  config.seed = seed;
  config.shards = 4;
  return config;
}

Population build_population(const PopulationSpec& spec, std::uint64_t seed,
                            core::ConcurrentEdge& box, par::ThreadPool& pool,
                            SetupTimes& times, SpanRecorder* spans) {
  trace::SyntheticConfig config;
  if (!spec.full_traces) {
    config.window_end = config.window_start + kHistorySeconds;
    config.max_check_ins = kSteadyMaxCheckIns;
  }
  const rng::Engine parent = rng::Engine(seed).split(0xED6E);

  Population population;
  population.history_end = config.window_start + kHistorySeconds;
  population.users.resize(spec.users);
  if (spec.full_traces) population.replay.resize(spec.users);

  std::vector<trace::UserTrace> histories;
  for (std::size_t begin = 0; begin < spec.users; begin += kChunkUsers) {
    const std::size_t end = std::min(spec.users, begin + kChunkUsers);
    histories.assign(end - begin, {});
    {
      const ScopedSpan span(spans, "trace.generate");
      const Clock::time_point start = Clock::now();
      pool.for_each_index(begin, end, 16, [&](std::size_t i) {
        trace::SyntheticUser user = trace::generate_user(parent, config, i + 1);
        population.users[i] = {std::move(user.truth.top_locations),
                               std::move(user.truth.weights)};
        if (spec.full_traces) {
          histories[i - begin] = trace::slice_by_time(
              user.trace, config.window_start, population.history_end);
          population.replay[i] = trace::slice_by_time(
              user.trace, population.history_end, config.window_end);
        } else {
          histories[i - begin] = std::move(user.trace);
        }
      });
      times.generate_s += seconds_since(start);
    }
    {
      const ScopedSpan span(spans, "core.import");
      const Clock::time_point start = Clock::now();
      pool.for_each_index(begin, end, 16, [&](std::size_t i) {
        box.import_history(i + 1, histories[i - begin]);
      });
      times.import_s += seconds_since(start);
    }
    for (std::size_t i = begin; i < end && i < kModuleSampleUsers; ++i) {
      population.sample_histories.push_back(std::move(histories[i - begin]));
    }
  }

  const ScopedSpan span(spans, "core.warm");
  const Clock::time_point start = Clock::now();
  pool.for_each_index(0, spec.users, 64, [&](std::size_t i) {
    for (const geo::Point& anchor : population.users[i].anchors) {
      box.serve(i + 1, anchor, population.history_end);
    }
  });
  times.warm_s += seconds_since(start);
  return population;
}

bool save_box(core::ConcurrentEdge& box, const std::string& path,
              SetupTimes& times, SpanRecorder* spans) {
  const ScopedSpan span(spans, "core.snapshot.save");
  const Clock::time_point start = Clock::now();
  if (!box.save_snapshot(path).ok()) return false;
  times.save_s += seconds_since(start);
  std::error_code error;
  times.snapshot_bytes = std::filesystem::file_size(path, error);
  return !error;
}

std::vector<net::TimedRequest> build_plan(const Population& population,
                                          const PlanShape& shape,
                                          std::uint64_t seed) {
  net::LoadPlanConfig config;
  config.target_rps = shape.rate_rps;
  config.duration_s = shape.duration_s;
  config.process = shape.process;
  config.burst_factor = shape.burst_factor;
  config.burst_fraction = shape.burst_fraction;
  config.burst_period_s = shape.burst_period_s;
  config.users = population.users.size();
  config.zipf_exponent = 1.1;
  config.seed = seed;
  std::vector<net::TimedRequest> plan = net::build_open_loop_plan(config);

  const double half_extent = trace::SyntheticConfig{}.area_half_extent_m;
  rng::Engine engine = rng::Engine(seed).split(0x9107);
  for (net::TimedRequest& timed : plan) {
    // Four draws per request whatever the branch, so a longer plan at the
    // same rate keeps every earlier request unchanged.
    const double u_kind = engine.uniform();
    const double u_pick = engine.uniform();
    const double u_x = engine.uniform();
    const double u_y = engine.uniform();
    net::ServeRequestFrame& request = timed.request;
    const BenchUser& user = population.users[request.user_id - 1];
    if (u_kind < kAnchorShare && !user.anchors.empty()) {
      double total = 0.0;
      for (const double w : user.weights) total += w;
      double target = u_pick * total;
      std::size_t pick = 0;
      while (pick + 1 < user.anchors.size() && target > user.weights[pick]) {
        target -= user.weights[pick];
        ++pick;
      }
      request.x = user.anchors[pick].x + (2.0 * u_x - 1.0) * kAnchorJitterM;
      request.y = user.anchors[pick].y + (2.0 * u_y - 1.0) * kAnchorJitterM;
    } else {
      request.x = (2.0 * u_x - 1.0) * half_extent;
      request.y = (2.0 * u_y - 1.0) * half_extent;
    }
    request.time = population.history_end + 3600 +
                   static_cast<trace::Timestamp>(std::floor(timed.at_s));
  }
  return plan;
}

namespace {

/// The worker net::EdgeServer routes `user_id` to: the Fibonacci hash
/// ConcurrentEdge also picks shards by. With as many shards as a multiple
/// of `workers`, two workers never take the same shard lock.
std::size_t worker_of(std::uint64_t user_id, std::size_t workers) {
  return (user_id * 0x9E3779B97F4A7C15ULL) % workers;
}

/// Per-thread tallies of an in-process replay, merged after the join.
struct LaneResult {
  std::uint64_t requests = 0, shed = 0, failed = 0, digest = 0;
  std::vector<float> latency_us;
  std::int64_t start_ns = 0, stop_ns = 0;
  double cpu_s = 0.0;
  double reference_s = 0.0;

  void count(std::uint64_t id, const core::ServeResult& result) {
    ++requests;
    if (result.outcome == core::ServeOutcome::kDegradedDropped) {
      ++shed;
    } else if (!result.released()) {
      ++failed;
    }
    digest += result_hash(id, result);
  }
};

/// Runs lane(0..threads) on `threads` threads (the caller is lane 0) and
/// merges their tallies. The threads start their lanes together; each
/// times its own lane on the wall clock and in CPU. With `calibrate`, each
/// thread also runs a reference pass right before and right after its
/// lane, outside both.
template <typename Lane>
InprocResult run_lanes(std::size_t threads, bool calibrate,
                       const Lane& lane) {
  std::vector<LaneResult> results(threads);
  std::barrier start_together(static_cast<std::ptrdiff_t>(threads));
  const auto body = [&](std::size_t t) {
    LaneResult& out = results[t];
    if (calibrate) out.reference_s += 0.5 * reference_pass_s();
    start_together.arrive_and_wait();
    const CpuSample cpu_start = thread_cpu();
    out.start_ns = now_ns();
    lane(t, out);
    out.stop_ns = now_ns();
    out.cpu_s = thread_cpu().cpu_s - cpu_start.cpu_s;
    if (calibrate) out.reference_s += 0.5 * reference_pass_s();
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(body, t);
    body(0);
  }
  InprocResult total;
  for (LaneResult& r : results) {
    total.busy_s += 1e-9 * static_cast<double>(r.stop_ns - r.start_ns) /
                    static_cast<double>(threads);
    total.cpu_s += r.cpu_s;
    total.reference_s += r.reference_s / static_cast<double>(threads);
    total.requests += r.requests;
    total.shed += r.shed;
    total.failed += r.failed;
    total.digest += r.digest;
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(),
                            r.latency_us.end());
  }
  return total;
}

}  // namespace

InprocResult serve_inproc(core::ConcurrentEdge& box,
                          const std::vector<net::TimedRequest>& plan,
                          std::size_t begin, std::size_t end,
                          std::size_t threads, bool timed,
                          SpanRecorder* spans) {
  std::vector<std::vector<std::uint32_t>> lanes(threads);
  for (std::size_t i = begin; i < end; ++i) {
    lanes[worker_of(plan[i].request.user_id, threads)].push_back(
        static_cast<std::uint32_t>(i));
  }
  return run_lanes(threads, timed, [&](std::size_t lane, LaneResult& out) {
    if (timed) out.latency_us.reserve(lanes[lane].size());
    for (const std::uint32_t i : lanes[lane]) {
      const net::ServeRequestFrame& r = plan[i].request;
      const std::int64_t start = timed ? now_ns() : 0;
      const core::ServeResult result =
          box.serve(r.user_id, {r.x, r.y}, r.time);
      if (timed) {
        const std::int64_t stop = now_ns();
        out.latency_us.push_back(1e-3f * static_cast<float>(stop - start));
        if (spans != nullptr && SpanRecorder::sampled(i)) {
          spans->add("core.serve", start, stop, -1, i);
        }
      }
      out.count(r.request_id, result);
    }
  });
}

InprocResult replay_traces(core::ConcurrentEdge& box,
                           const std::vector<trace::UserTrace>& traces,
                           std::size_t threads) {
  // A replay takes seconds, so it runs in chunks of users, each bracketed
  // by its own reference passes; the replay's reference time is the
  // chunks' harmonic mean weighted by busy time, which calibrates every
  // chunk with the host speed of its own moment.
  InprocResult total;
  double busy_per_reference = 0.0;
  for (std::size_t first = 0; first < traces.size();
       first += kReplayChunkUsers) {
    const std::size_t last = std::min(traces.size(), first + kReplayChunkUsers);
    InprocResult chunk =
        run_lanes(threads, true, [&](std::size_t lane, LaneResult& out) {
          for (std::size_t u = first; u < last; ++u) {
            const trace::UserTrace& trace = traces[u];
            if (worker_of(trace.user_id, threads) != lane) continue;
            for (std::size_t k = 0; k < trace.check_ins.size(); ++k) {
              const trace::CheckIn& c = trace.check_ins[k];
              const std::int64_t start = now_ns();
              const core::ServeResult result =
                  box.serve(trace.user_id, c.position, c.time);
              out.latency_us.push_back(
                  1e-3f * static_cast<float>(now_ns() - start));
              out.count((trace.user_id << 24) ^ k, result);
            }
          }
        });
    total.requests += chunk.requests;
    total.shed += chunk.shed;
    total.failed += chunk.failed;
    total.digest += chunk.digest;
    total.busy_s += chunk.busy_s;
    total.cpu_s += chunk.cpu_s;
    busy_per_reference += chunk.busy_s / chunk.reference_s;
    total.latency_us.insert(total.latency_us.end(), chunk.latency_us.begin(),
                            chunk.latency_us.end());
  }
  if (busy_per_reference > 0.0) {
    total.reference_s = total.busy_s / busy_per_reference;
  }
  return total;
}

}  // namespace privlocad::edgebench
