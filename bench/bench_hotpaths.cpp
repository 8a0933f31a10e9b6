// Hot-path microbenches for the sampling + attack kernels: the two inner
// loops population-scale runs actually spend their time in.
//
//   1. Standard-normal sampling. fill_standard_normal (ziggurat)
//      throughput, plus the paired 2-D noise fill the mechanisms use, so
//      a sampler regression shows up as a number, not a feeling.
//   2. De-obfuscation. Repeated Algorithm-1 clusterings of one fixed
//      observation stream through a reused DeobfuscationWorkspace
//      (clusterings/sec), then a full evaluate_population pass whose
//      per-user latency histogram ("attack.deobfuscation_latency_us")
//      yields the p50/p95/p99 the workspace refactor is accountable to.
//
//   3. Hot kernels. Each kernel (grid distance scan, connectivity
//      clustering, posterior selection scoring, 2-D noise apply) timed
//      once at its production call shape. One more clustering case is a
//      home location: 4,000 check-ins in a 20 m disk at theta = 50 m
//      (clustering_dense_points_per_second).
//
// Emits BENCH_hotpaths.json; the perf_guard ctest compares the committed
// repo-root baseline against a fresh run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "attack/clustering.hpp"
#include "bench_common.hpp"
#include "lppm/gaussian.hpp"
#include "rng/samplers.hpp"
#include "rng/ziggurat.hpp"
#include "simd/kernels.hpp"
#include "util/timer.hpp"

namespace {

using namespace privlocad;

/// Samples/sec of fill_standard_normal, drawn through the same
/// chunked-buffer pattern the mechanisms use (so the number reflects the
/// real call shape, not one giant resident buffer).
double sampler_rate(std::uint64_t total) {
  constexpr std::size_t kChunk = 16384;
  std::vector<double> buffer(kChunk);
  rng::Engine engine(97);
  double sink = 0.0;  // defeat dead-code elimination
  const util::Timer timer;
  std::uint64_t remaining = total;
  while (remaining > 0) {
    const std::size_t n =
        remaining < kChunk ? static_cast<std::size_t>(remaining) : kChunk;
    rng::fill_standard_normal(engine, {buffer.data(), n});
    sink += buffer[0] + buffer[n - 1];
    remaining -= n;
  }
  const double seconds = timer.elapsed_seconds();
  if (sink == 12345.6789) std::printf("(unlikely) sink=%f\n", sink);
  return static_cast<double>(total) / seconds;
}

/// 2-D noise pairs/sec through fill_gaussian_noise_2d (the n-fold release
/// hot path).
double noise2d_rate(std::uint64_t total_pairs) {
  constexpr std::size_t kChunk = 8192;
  std::vector<geo::Point> buffer(kChunk);
  rng::Engine engine(101);
  double sink = 0.0;
  const util::Timer timer;
  std::uint64_t remaining = total_pairs;
  while (remaining > 0) {
    const std::size_t n =
        remaining < kChunk ? static_cast<std::size_t>(remaining) : kChunk;
    rng::fill_gaussian_noise_2d(engine, 250.0, {buffer.data(), n});
    sink += buffer[0].x + buffer[n - 1].y;
    remaining -= n;
  }
  const double seconds = timer.elapsed_seconds();
  if (sink == 12345.6789) std::printf("(unlikely) sink=%f\n", sink);
  return static_cast<double>(total_pairs) / seconds;
}

/// Uniform cloud + Gaussian hot spots for the scan/clustering kernels:
/// dense enough that grid cells hold many points, sparse enough that
/// clustering does not collapse into one component.
std::vector<geo::Point> kernel_cloud(std::uint64_t seed, std::size_t n,
                                     double extent_m) {
  rng::Engine engine(seed);
  std::vector<geo::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(
        {engine.uniform() * extent_m, engine.uniform() * extent_m});
  }
  return points;
}

/// One home location: `n` check-ins uniform in a disk of `radius_m`, all
/// one component at the 50 m profiling threshold. Its few grid cells hold
/// every point, the shape a per-user profile rebuild clusters.
std::vector<geo::Point> dense_disk(std::uint64_t seed, std::size_t n,
                                   double radius_m) {
  rng::Engine engine(seed);
  std::vector<geo::Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = radius_m * std::sqrt(engine.uniform());
    const double a = 2.0 * std::numbers::pi * engine.uniform();
    points.push_back({r * std::cos(a), r * std::sin(a)});
  }
  return points;
}

/// Points scanned/sec through the raw distance-scan kernel
/// (simd::scan_slots_within) over a resident SoA span with a radius
/// that accepts roughly a third of the points -- the live-prefix scan
/// GridIndex::for_each_within drives.
double distance_scan_rate(std::uint64_t total_slots) {
  constexpr std::size_t kSlots = 32768;
  constexpr std::uint32_t kChunk = 256;
  rng::Engine engine(31);
  std::vector<double> xs(kSlots), ys(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    xs[i] = engine.uniform() * 1000.0;
    ys[i] = engine.uniform() * 1000.0;
  }
  const double r2 = 326.0 * 326.0;  // pi*326^2 / 1000^2 ~ 1/3 hit rate
  std::uint32_t hit_slots[kChunk];
  double hit_d2[kChunk];
  std::uint64_t scanned = 0;
  std::size_t hits = 0;
  const util::Timer timer;
  while (scanned < total_slots) {
    for (std::uint32_t begin = 0; begin < kSlots; begin += kChunk) {
      hits += simd::scan_slots_within(xs.data(), ys.data(), begin,
                                      begin + kChunk, 500.0, 500.0, r2,
                                      hit_slots, hit_d2);
    }
    scanned += kSlots;
  }
  const double seconds = timer.elapsed_seconds();
  if (hits == 0) std::printf("(unlikely) zero scan hits\n");
  return static_cast<double>(scanned) / seconds;
}

/// Candidates/sec through the raw posterior log-density kernel
/// (simd::posterior_log_densities) at Algorithm-4 candidate-set shape.
double posterior_kernel_rate(std::uint64_t total_candidates) {
  constexpr std::size_t kCandidates = 4096;
  rng::Engine engine(33);
  std::vector<double> xs(kCandidates), ys(kCandidates), out(kCandidates);
  for (std::size_t i = 0; i < kCandidates; ++i) {
    xs[i] = engine.uniform() * 1000.0;
    ys[i] = engine.uniform() * 1000.0;
  }
  const double denom = 2.0 * 250.0 * 250.0;
  double sink = 0.0;
  std::uint64_t done = 0;
  const util::Timer timer;
  while (done < total_candidates) {
    sink += simd::posterior_log_densities(xs.data(), ys.data(), kCandidates,
                                          512.0, 481.0, denom, out.data());
    done += kCandidates;
  }
  const double seconds = timer.elapsed_seconds();
  if (sink == 12345.6789) std::printf("(unlikely) sink=%f\n", sink);
  return static_cast<double>(done) / seconds;
}

/// Pairs/sec through the raw noise-apply kernel (simd::apply_noise_pairs)
/// on a resident pre-sampled buffer: isolates the scale-and-offset stage
/// the 2-D noise fill runs after ziggurat sampling.
double noise_apply_rate(std::uint64_t total_pairs) {
  constexpr std::size_t kPairs = 8192;
  rng::Engine engine(35);
  std::vector<double> samples(2 * kPairs), out(2 * kPairs);
  rng::fill_standard_normal(engine, {samples.data(), samples.size()});
  std::uint64_t done = 0;
  const util::Timer timer;
  while (done < total_pairs) {
    simd::apply_noise_pairs(samples.data(), kPairs, 250.0, 3021.5, -118.25,
                            out.data());
    done += kPairs;
  }
  const double seconds = timer.elapsed_seconds();
  if (out[0] == 12345.6789) std::printf("(unlikely) out=%f\n", out[0]);
  return static_cast<double>(done) / seconds;
}

/// Points/sec through full connectivity clustering (index build +
/// BFS expansion through the scan kernel), repeated `repeats` times.
double clustering_rate(const std::vector<geo::Point>& points,
                       double threshold_m, std::uint64_t repeats) {
  std::size_t total_clusters = 0;
  const util::Timer timer;
  for (std::uint64_t r = 0; r < repeats; ++r) {
    total_clusters +=
        attack::connectivity_clusters(points, threshold_m).size();
  }
  const double seconds = timer.elapsed_seconds();
  if (total_clusters == 0) std::printf("(unlikely) zero clusters\n");
  return static_cast<double>(points.size()) *
         static_cast<double>(repeats) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privlocad;

  const std::uint64_t samples =
      bench::flag_or(argc, argv, "samples", 4'000'000);
  const std::uint64_t clusterings =
      bench::flag_or(argc, argv, "clusterings", 300);
  const std::size_t users = bench::flag_or(argc, argv, "users", 120);
  const std::uint64_t max_check_ins =
      bench::flag_or(argc, argv, "max-check-ins", 600);

  bench::print_header("Hot paths -- batched sampling + attack workspace");

  // ---- 1. sampler throughput.
  const double zig_rate = sampler_rate(samples);
  const double pair_rate = noise2d_rate(samples / 2);
  std::printf("standard normal (%llu samples, 16k chunks):\n",
              static_cast<unsigned long long>(samples));
  std::printf("  ziggurat     : %12.0f samples/s\n", zig_rate);
  std::printf("  2-D noise    : %12.0f pairs/s\n", pair_rate);

  // ---- 1b. hot kernels. Scan, posterior and noise-apply time the raw
  // kernels at their production call shapes; clustering times the full
  // Algorithm-1 connectivity expansion (grid build + walk) so the record
  // also shows the end-to-end effect.
  const std::uint64_t kernel_ops = std::max<std::uint64_t>(samples, 65536);
  const double scan = distance_scan_rate(kernel_ops * 4);

  const std::vector<geo::Point> cluster_cloud = kernel_cloud(41, 4000, 1500.0);
  const double clustering = clustering_rate(cluster_cloud, 120.0, clusterings);

  // One 20 m disk of 4,000 check-ins at theta = 50 m: the dense-component
  // case of a profile rebuild.
  const std::vector<geo::Point> home_disk = dense_disk(43, 4000, 20.0);
  const double clustering_dense =
      clustering_rate(home_disk, 50.0, clusterings);

  const double noise = noise_apply_rate(kernel_ops * 2);
  const double selection = posterior_kernel_rate(kernel_ops * 2);

  std::printf("\nhot kernels:\n");
  std::printf("  distance scan: %12.0f points/s\n", scan);
  std::printf("  clustering   : %12.0f points/s\n", clustering);
  std::printf("  dense disk   : %12.0f points/s (one 4,000-point component)\n",
              clustering_dense);
  std::printf("  noise apply  : %12.0f pairs/s\n", noise);
  std::printf("  posterior    : %12.0f cands/s\n", selection);

  // ---- 2. repeated clusterings of one observation stream, workspace
  // reused across calls exactly as evaluate_population reuses it.
  lppm::BoundedGeoIndParams params;
  params.radius_m = 500.0;
  params.epsilon = 1.0;
  params.delta = 0.01;
  params.n = 10;
  const lppm::NFoldGaussianMechanism mechanism(params);
  const attack::DeobfuscationConfig attack_config =
      bench::attack_config_for(mechanism, 2);

  const auto population = bench::bench_population(7, users, max_check_ins);
  // Cluster the longest trace: the clusterings/sec number should reflect
  // a heavy user, not whichever happens to come first.
  const trace::SyntheticUser& heaviest = *std::max_element(
      population.begin(), population.end(),
      [](const trace::SyntheticUser& a, const trace::SyntheticUser& b) {
        return a.trace.check_ins.size() < b.trace.check_ins.size();
      });
  rng::Engine observe_engine(13);
  std::vector<geo::Point> observed;
  observed.reserve(heaviest.trace.check_ins.size());
  for (const trace::CheckIn& c : heaviest.trace.check_ins) {
    observed.push_back(c.position +
                       rng::gaussian_noise(observe_engine, mechanism.sigma()));
  }

  attack::DeobfuscationWorkspace workspace;
  std::size_t inferred_total = 0;
  util::Timer cluster_timer;
  for (std::uint64_t i = 0; i < clusterings; ++i) {
    inferred_total +=
        attack::deobfuscate_top_locations(observed, attack_config, workspace)
            .size();
  }
  const double cluster_seconds = cluster_timer.elapsed_seconds();
  const double cluster_rate =
      static_cast<double>(clusterings) / cluster_seconds;
  std::printf("\nAlgorithm 1, reused workspace (%zu check-ins):\n",
              observed.size());
  std::printf("  clusterings  : %llu (%zu locations inferred)\n",
              static_cast<unsigned long long>(clusterings), inferred_total);
  std::printf("  rate         : %12.1f clusterings/s\n", cluster_rate);

  // ---- 3. population pass; the per-user latency histogram is the
  // workspace refactor's accountability metric.
  attack::PopulationAttackProtocol protocol;
  protocol.deobfuscation = attack_config;
  const double sigma = mechanism.sigma();
  util::Timer population_timer;
  const attack::SuccessRateAccumulator rates = attack::evaluate_population(
      population, protocol,
      [sigma](rng::Engine& engine, const trace::SyntheticUser& user) {
        std::vector<geo::Point> stream;
        stream.reserve(user.trace.check_ins.size());
        for (const trace::CheckIn& c : user.trace.check_ins) {
          stream.push_back(c.position + rng::gaussian_noise(engine, sigma));
        }
        return stream;
      });
  const double population_seconds = population_timer.elapsed_seconds();
  const obs::LatencyHistogram& latency =
      obs::MetricsRegistry::global().histogram(
          "attack.deobfuscation_latency_us");
  std::printf("\nevaluate_population (%zu users):\n", rates.users());
  std::printf("  wall         : %.3fs\n", population_seconds);
  std::printf("  per-user deobfuscation: p50 %.1fus  p95 %.1fus  p99 %.1fus\n",
              latency.quantile(0.50), latency.quantile(0.95),
              latency.quantile(0.99));

  bench::JsonMetrics record;
  record.add_string("bench", "hotpaths");
  record.add("samples", samples);
  record.add("ziggurat_samples_per_second", zig_rate);
  record.add("noise2d_pairs_per_second", pair_rate);
  record.add("distance_scan_points_per_second", scan);
  record.add("clustering_points_per_second", clustering);
  record.add("clustering_dense_points_per_second", clustering_dense);
  record.add("noise_apply_pairs_per_second", noise);
  record.add("selection_candidates_per_second", selection);
  record.add("clusterings", clusterings);
  record.add("clusterings_per_second", cluster_rate);
  record.add("users", static_cast<std::uint64_t>(rates.users()));
  record.add("population_wall_seconds", population_seconds);
  bench::add_latency_percentiles(record, "deobfuscation_latency_us", latency);
  bench::emit_json("BENCH_hotpaths.json", record);
  return 0;
}
