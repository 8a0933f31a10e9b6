// Edge-cluster load distribution and batch-serving throughput.
//
// Part 1 (paper Section V-A: devices serve nearby users): how a metro-area
// deployment spreads request load across cell-sharded edge devices when
// users follow the synthetic mobility model. Prints requests-per-device
// statistics -- capacity planners read the max/mean ratio. The load map
// comes from EdgeCluster::cell_loads(), so devices are counted wherever
// the population wandered (no fixed scan window to silently fall outside).
//
// Part 2 (paper Tables II/III: one edge platform, tens of thousands of
// users): ConcurrentEdge::serve_trace_batch drives the same population
// through one sharded edge box from 1 worker thread and then from N
// (PRIVLOCAD_THREADS or hardware), reporting requests/sec for both and
// checking that telemetry totals agree -- the parallel run must be a
// faster version of the same computation, not a different one.
//
// Part 3 (mega-scale data plane, --mega-users, default 1M): streams a
// million-user synthetic population into one sharded edge box (per-user
// generation -> import, no whole-population buffer), saves the columnar
// snapshot, reopens it in a second box, and probes both boxes with
// identical request streams. Reports serve throughput, snapshot size,
// save/load seconds (load must be O(seconds): the open streams each
// column extent into place, no text parse), resident-set bytes, and a
// bit-identity check between the in-memory and reopened serving paths.
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/concurrent_edge.hpp"
#include "core/edge_cluster.hpp"
#include "core/snapshot.hpp"
#include "par/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace privlocad;

  const std::size_t users = bench::flag_or(argc, argv, "users", 300);
  const double cell_km = static_cast<double>(
      bench::flag_or(argc, argv, "cell-km", 20));
  const std::size_t threads = par::hardware_threads();

  bench::print_header(
      "Edge cluster -- request load across cell devices (" +
      std::to_string(users) + " users, " +
      std::to_string(static_cast<int>(cell_km)) + " km cells)");

  core::EdgeClusterConfig config;
  config.edge.top_params.radius_m = 500.0;
  config.edge.top_params.epsilon = 1.0;
  config.edge.top_params.delta = 0.01;
  config.edge.top_params.n = 10;
  config.cell_size_m = cell_km * 1000.0;
  core::EdgeCluster cluster(config.with_seed(9));

  trace::SyntheticConfig synth;
  synth.min_check_ins = 100;
  synth.max_check_ins = 600;
  const rng::Engine parent(12);
  const auto population = trace::generate_population(parent, synth, users);

  std::size_t total_requests = 0;
  for (const trace::SyntheticUser& user : population) {
    for (const trace::CheckIn& c : user.trace.check_ins) {
      const core::ServeResult served =
          cluster.serve(user.trace.user_id, c.position, c.time);
      if (!served.released()) {
        std::fprintf(stderr, "request not released: %s\n",
                     served.status.to_string().c_str());
        return 1;
      }
      ++total_requests;
    }
  }

  // The complete per-cell load map, wherever the population roamed.
  std::vector<std::size_t> loads;
  for (const core::EdgeCluster::CellLoad& cell : cluster.cell_loads()) {
    loads.push_back(cell.requests);
  }
  std::sort(loads.rbegin(), loads.rend());

  const double mean = static_cast<double>(total_requests) /
                      static_cast<double>(loads.size());
  std::printf("total requests    : %zu\n", total_requests);
  std::printf("active devices    : %zu\n", cluster.active_devices());
  std::printf("busiest device    : %zu requests (%.1fx the mean)\n",
              loads.front(), static_cast<double>(loads.front()) / mean);
  std::printf("quietest device   : %zu requests\n", loads.back());

  // ---- Part 2: one sharded edge box under batch load, 1 vs N threads.
  constexpr std::size_t kShards = 16;
  std::printf("\nbatch serving through ConcurrentEdge (%zu shards):\n",
              kShards);
  std::vector<trace::UserTrace> traces;
  traces.reserve(population.size());
  for (const trace::SyntheticUser& user : population) {
    traces.push_back(user.trace);
  }

  par::ThreadPool serial_pool(1);
  core::ConcurrentEdge serial_edge(config.edge.with_shards(kShards).with_seed(9));
  const core::BatchServeStats serial =
      serial_edge.serve_trace_batch(traces, serial_pool);
  const core::EdgeTelemetry serial_telemetry = serial_edge.telemetry();

  par::ThreadPool parallel_pool(threads);
  core::ConcurrentEdge parallel_edge(config.edge.with_shards(kShards).with_seed(9));
  const core::BatchServeStats parallel =
      parallel_edge.serve_trace_batch(traces, parallel_pool);
  const core::EdgeTelemetry parallel_telemetry = parallel_edge.telemetry();

  const bool counters_match =
      serial_telemetry.requests == parallel_telemetry.requests &&
      serial_telemetry.top_reports == parallel_telemetry.top_reports &&
      serial_telemetry.nomadic_reports == parallel_telemetry.nomadic_reports;
  const double speedup = parallel.wall_seconds > 0.0
                             ? serial.wall_seconds / parallel.wall_seconds
                             : 0.0;

  std::printf("  1 thread          : %8.0f req/s (%.3fs)\n",
              serial.requests_per_second(), serial.wall_seconds);
  std::printf("  %zu thread(s)       : %8.0f req/s (%.3fs)  %.2fx\n",
              threads, parallel.requests_per_second(),
              parallel.wall_seconds, speedup);
  std::printf("  telemetry totals  : %s\n",
              counters_match ? "identical" : "MISMATCH");

  // ---- Part 3: mega-scale columnar data plane (1M users by default).
  const std::size_t mega_users =
      bench::flag_or(argc, argv, "mega-users", 1000000);
  const std::size_t mega_shards =
      bench::flag_or(argc, argv, "mega-shards", 8);

  std::uint64_t mega_requests = 0;
  double mega_requests_per_second = 0.0;
  double snapshot_save_seconds = 0.0;
  double snapshot_load_seconds = 0.0;
  double snapshot_load_users_per_second = 0.0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t mega_resident_bytes = 0;
  bool mega_serve_match = true;

  if (mega_users > 0) {
    std::printf("\nmega data plane (%zu users, %zu shards):\n", mega_users,
                mega_shards);

    trace::SyntheticConfig mega_synth;
    mega_synth.min_check_ins = 20;
    mega_synth.max_check_ins = 60;
    const rng::Engine mega_parent(4242);

    const core::EdgeConfig mega_config =
        config.edge.with_shards(mega_shards).with_seed(77);
    core::ConcurrentEdge live_edge(mega_config);

    // Streamed generation -> import: one user materialized at a time, so
    // the only O(users) state is the store itself plus the probe columns.
    std::vector<double> probe_xs(mega_users), probe_ys(mega_users);
    std::vector<trace::Timestamp> probe_ts(mega_users);
    util::Timer timer;
    std::uint64_t imported_check_ins = 0;
    for (std::size_t uid = 0; uid < mega_users; ++uid) {
      const trace::SyntheticUser user =
          trace::generate_user(mega_parent, mega_synth, uid);
      live_edge.import_history(user.trace.user_id, user.trace);
      imported_check_ins += user.trace.check_ins.size();
      probe_xs[uid] = user.trace.check_ins.front().position.x;
      probe_ys[uid] = user.trace.check_ins.front().position.y;
      probe_ts[uid] = user.trace.check_ins.back().time + 600;
    }
    const double import_seconds = timer.elapsed_seconds();
    std::printf("  import            : %zu users / %llu check-ins in %.1fs "
                "(%.0f users/s)\n",
                mega_users,
                static_cast<unsigned long long>(imported_check_ins),
                import_seconds,
                static_cast<double>(mega_users) / import_seconds);

    // Snapshot the post-import state BEFORE serving: the live box and the
    // reopened box must start from identical state so their probe
    // streams can be compared bit-for-bit.
    const std::string snapshot_path = "BENCH_cluster_load.snap";
    timer.reset();
    const util::Status save_status = live_edge.save_snapshot(snapshot_path);
    snapshot_save_seconds = timer.elapsed_seconds();
    if (!save_status.ok()) {
      std::printf("  snapshot save FAILED: %s\n",
                  save_status.message().c_str());
      return 1;
    }
    struct stat snapshot_stat{};
    if (::stat(snapshot_path.c_str(), &snapshot_stat) == 0) {
      snapshot_bytes = static_cast<std::uint64_t>(snapshot_stat.st_size);
    }
    std::printf("  snapshot save     : %.2fs (%.1f MB, %.1f bytes/user)\n",
                snapshot_save_seconds,
                static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0),
                static_cast<double>(snapshot_bytes) /
                    static_cast<double>(mega_users));

    // Each user gets one likely-top probe (their first anchor) and one
    // far-away nomadic probe; the serve-result stream is FNV-hashed so the
    // live and reopened boxes can be compared without buffering 2M results.
    const auto probe_edge = [&](core::ConcurrentEdge& edge) {
      std::uint64_t hash = core::snapshot::kFnvOffsetBasis;
      for (std::size_t uid = 0; uid < mega_users; ++uid) {
        const geo::Point top_probe{probe_xs[uid], probe_ys[uid]};
        const geo::Point nomadic_probe{probe_xs[uid] + 50000.0,
                                       probe_ys[uid] - 50000.0};
        for (const geo::Point& probe : {top_probe, nomadic_probe}) {
          const core::ServeResult r = edge.serve(uid, probe, probe_ts[uid]);
          const std::uint64_t words[4] = {
              static_cast<std::uint64_t>(r.outcome),
              r.released() ? static_cast<std::uint64_t>(r.reported.kind)
                           : ~0ULL,
              r.released() ? std::bit_cast<std::uint64_t>(r.reported.location.x)
                           : 0ULL,
              r.released() ? std::bit_cast<std::uint64_t>(r.reported.location.y)
                           : 0ULL,
          };
          hash = core::snapshot::fnv1a64(words, sizeof(words), hash);
        }
      }
      return hash;
    };

    timer.reset();
    const std::uint64_t live_hash = probe_edge(live_edge);
    const double live_serve_seconds = timer.elapsed_seconds();
    mega_requests = 2 * static_cast<std::uint64_t>(mega_users);
    mega_requests_per_second =
        static_cast<double>(mega_requests) / live_serve_seconds;
    std::printf("  live serving      : %8.0f req/s (%zu reqs, %.1fs)\n",
                mega_requests_per_second, static_cast<std::size_t>(mega_requests),
                live_serve_seconds);

    // Reopen the snapshot in a second box: a checksum pass, one copy of
    // each column extent, and a directory rebuild.
    core::ConcurrentEdge reopened_edge(mega_config);
    timer.reset();
    const util::Status open_status =
        reopened_edge.open_snapshot(snapshot_path);
    snapshot_load_seconds = timer.elapsed_seconds();
    if (!open_status.ok()) {
      std::printf("  snapshot open FAILED: %s\n",
                  open_status.message().c_str());
      return 1;
    }
    snapshot_load_users_per_second =
        static_cast<double>(mega_users) / snapshot_load_seconds;
    std::printf("  snapshot load     : %.3fs (%.0f users/s)\n",
                snapshot_load_seconds, snapshot_load_users_per_second);

    const std::uint64_t reopened_hash = probe_edge(reopened_edge);
    mega_serve_match = reopened_hash == live_hash;
    std::printf("  serve bit-identity: %s\n",
                mega_serve_match ? "identical" : "MISMATCH");
    mega_resident_bytes = bench::resident_set_bytes();
    std::printf("  resident set      : %.1f MB (both boxes + probes)\n",
                static_cast<double>(mega_resident_bytes) / (1024.0 * 1024.0));
    std::remove(snapshot_path.c_str());
  }

  bench::JsonMetrics record;
  record.add_string("bench", "cluster_load");
  record.add("threads", static_cast<std::uint64_t>(threads));
  record.add("users", static_cast<std::uint64_t>(users));
  record.add("total_requests", static_cast<std::uint64_t>(total_requests));
  record.add("active_devices",
             static_cast<std::uint64_t>(cluster.active_devices()));
  record.add("busiest_over_mean",
             static_cast<double>(loads.front()) / mean);
  record.add("serial_seconds", serial.wall_seconds);
  record.add("parallel_seconds", parallel.wall_seconds);
  record.add("serial_requests_per_second", serial.requests_per_second());
  record.add("parallel_requests_per_second",
             parallel.requests_per_second());
  record.add("speedup", speedup);
  record.add("telemetry_match",
             static_cast<std::uint64_t>(counters_match ? 1 : 0));
  bench::add_latency_percentiles(
      record, "serve_latency_us",
      parallel_edge.metrics().histogram(core::edge_metrics::kServeLatencyUs));
  const par::PoolStats pool_stats = parallel_pool.stats();
  record.add("pool_tasks_executed", pool_stats.tasks_executed);
  record.add("pool_steals", pool_stats.steals);
  record.add("mega_users", static_cast<std::uint64_t>(mega_users));
  record.add("mega_requests", mega_requests);
  record.add("mega_requests_per_second", mega_requests_per_second);
  record.add("snapshot_bytes", snapshot_bytes);
  record.add("snapshot_save_seconds", snapshot_save_seconds);
  record.add("snapshot_load_seconds", snapshot_load_seconds);
  record.add("snapshot_load_users_per_second", snapshot_load_users_per_second);
  record.add("resident_bytes", mega_resident_bytes);
  record.add("mega_serve_match",
             static_cast<std::uint64_t>(mega_serve_match ? 1 : 0));
  bench::emit_json("BENCH_cluster_load.json", record);

  std::printf("\nexpected: load roughly follows population density; top "
              "locations pin most of a user's requests to one device, "
              "which is exactly why per-device state (tables, profiles) "
              "shards cleanly\n");
  return (counters_match && mega_serve_match) ? 0 : 1;
}
