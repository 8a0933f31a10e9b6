// Reproduces paper Fig. 7: utilization-rate comparison between the n-fold
// Gaussian mechanism and the two baselines (naive post-processing, plain
// DP composition) for n in [1, 10], eps = 1, r = 500 m, R = 5 km.
//
// The paper's metric (2) is the MINIMAL utilization rate: the lower bound
// v with Pr(UR >= v) = alpha = 0.9 (Eq. 24). Against that metric the paper
// reports, at n = 10: ~100% for the n-fold mechanism, ~58% for naive
// post-processing, and ~20% for plain composition -- and composition
// DECREASES as n grows. We print both the mean UR and the minimal UR; the
// minimal column is the paper comparison.
//
// A second section exercises the optimal geo-IND baseline at scale: the
// exact LP mechanism on a small grid (--exact-side) against the
// spanner-decomposed approximate build on a large one (--approx-side),
// recording the measured dilation bound, the utility-loss ratio between
// the two constructions at the small grid, and the LP solver's opt.*
// observability counters in BENCH_fig7_mechanisms.json.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "lppm/baselines.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/optimal_mechanism.hpp"
#include "stats/monte_carlo.hpp"
#include "stats/quantiles.hpp"
#include "util/timer.hpp"
#include "utility/metrics.hpp"

int main(int argc, char** argv) {
  using namespace privlocad;

  // The paper runs 100,000 trials per point; each trial here also runs a
  // coverage estimate, so the default is trimmed for single-core wall
  // clock. Raise with --trials to match the paper exactly.
  const std::uint64_t trials = bench::flag_or(argc, argv, "trials", 5000);
  const std::uint64_t ur_samples =
      bench::flag_or(argc, argv, "ur-samples", 256);
  const std::uint64_t exact_side =
      bench::flag_or(argc, argv, "exact-side", 4);
  const std::uint64_t approx_side =
      bench::flag_or(argc, argv, "approx-side", 32);
  constexpr double kTargetingRadius = 5000.0;
  constexpr double kAlpha = 0.9;

  bench::print_header(
      "Figure 7 -- utilization rate by mechanism (eps=1, r=500m, R=5km, " +
      std::to_string(trials) + " trials/point)");

  std::printf("%3s | %9s %9s | %9s %9s | %9s %9s\n", "", "n-fold", "",
              "post-proc", "", "compos.", "");
  std::printf("%3s | %9s %9s | %9s %9s | %9s %9s\n", "n", "mean",
              "min@0.9", "mean", "min@0.9", "mean", "min@0.9");

  std::vector<double> final_min_ur(3, 0.0);  // per mechanism at n = 10
  for (std::size_t n = 1; n <= 10; ++n) {
    lppm::BoundedGeoIndParams params;
    params.radius_m = 500.0;
    params.epsilon = 1.0;
    params.delta = 0.01;
    params.n = n;

    const std::vector<std::unique_ptr<lppm::Mechanism>> mechanisms = [&] {
      std::vector<std::unique_ptr<lppm::Mechanism>> v;
      v.push_back(std::make_unique<lppm::NFoldGaussianMechanism>(params));
      v.push_back(
          std::make_unique<lppm::NaivePostProcessingMechanism>(params));
      v.push_back(std::make_unique<lppm::PlainCompositionMechanism>(params));
      return v;
    }();

    std::printf("%3zu", n);
    for (std::size_t m = 0; m < mechanisms.size(); ++m) {
      const rng::Engine parent(700 + n * 10 + m);
      stats::MonteCarloOptions opts;
      opts.trials = trials;
      opts.keep_samples = true;
      const auto result = stats::run_monte_carlo(
          opts, [&](std::uint64_t t) {
            rng::Engine e = parent.split(t);
            const auto candidates = mechanisms[m]->obfuscate(e, {0, 0});
            return utility::utilization_rate(e, {0, 0}, candidates,
                                             kTargetingRadius, ur_samples);
          });
      const double min_ur =
          stats::lower_bound_at_confidence(result.samples, kAlpha);
      std::printf(" | %9.3f %9.3f", result.summary.mean(), min_ur);
      if (n == 10) final_min_ur[m] = min_ur;
    }
    std::printf("\n");
  }
  std::printf("\npaper @ n=10 (minimal UR): n-fold ~1.00, post-processing "
              "~0.58, composition ~0.20; composition falls with n\n");

  // ------------------- optimal geo-IND baseline at scale -----------------
  bench::print_header(
      "Optimal geo-IND baseline: exact " + std::to_string(exact_side) + "x" +
      std::to_string(exact_side) + " vs approximate " +
      std::to_string(approx_side) + "x" + std::to_string(approx_side));

  const double grid_epsilon = std::log(4.0) / 200.0;

  lppm::OptimalMechanismConfig exact_config;
  exact_config.per_side = exact_side;
  exact_config.cell_spacing_m = 250.0;
  exact_config.epsilon = grid_epsilon;
  util::Timer exact_timer;
  const lppm::OptimalGeoIndMechanism exact(exact_config);
  const double exact_seconds = exact_timer.elapsed_seconds();

  // Approximate build at the same small grid: the utility-loss ratio
  // against the exact optimum must stay within the certified dilation.
  lppm::ApproximateOptimalConfig small_config;
  small_config.per_side = exact_side;
  small_config.cell_spacing_m = 250.0;
  small_config.epsilon = grid_epsilon;
  lppm::ApproximateBuildReport small_report;
  (void)lppm::OptimalGeoIndMechanism::build_approximate(small_config,
                                                        &small_report);
  const double utility_loss_ratio =
      small_report.quality_loss / exact.expected_quality_loss();

  // The headline build: a grid the exact whole-grid LP cannot touch.
  lppm::ApproximateOptimalConfig big_config;
  big_config.per_side = approx_side;
  big_config.cell_spacing_m = 250.0;
  big_config.epsilon = grid_epsilon;
  lppm::ApproximateBuildReport big_report;
  (void)lppm::OptimalGeoIndMechanism::build_approximate(big_config,
                                                        &big_report);
  const double approx_cells_per_second =
      static_cast<double>(big_report.cells) / big_report.construct_seconds;

  std::printf("%28s %10s %12s %10s\n", "", "cells", "E[loss] m", "build s");
  std::printf("%28s %10zu %12.1f %10.2f\n", "exact LP",
              exact.cell_count(), exact.expected_quality_loss(),
              exact_seconds);
  std::printf("%28s %10zu %12.1f %10.2f\n", "approx (same grid)",
              small_report.cells, small_report.quality_loss,
              small_report.construct_seconds);
  std::printf("%28s %10zu %12.1f %10.2f\n", "approx (scaled)",
              big_report.cells, big_report.quality_loss,
              big_report.construct_seconds);
  std::printf("\nutility-loss ratio %.3f <= certified dilation %.3f; "
              "scaled build: %zu windows, %zu cold / %zu warm / %zu reused, "
              "%.0f cells/s\n",
              utility_loss_ratio, small_report.dilation, big_report.windows,
              big_report.window_solves_cold, big_report.window_solves_warm,
              big_report.window_reuse_hits, approx_cells_per_second);

  auto& registry = obs::MetricsRegistry::global();
  bench::JsonMetrics metrics;
  metrics.add_string("bench", "fig7_mechanisms");
  metrics.add("trials", trials);
  metrics.add("ur_samples", ur_samples);
  metrics.add("nfold_min_ur_n10", final_min_ur[0]);
  metrics.add("postproc_min_ur_n10", final_min_ur[1]);
  metrics.add("composition_min_ur_n10", final_min_ur[2]);
  metrics.add("exact_cells", exact.cell_count());
  metrics.add("exact_quality_loss", exact.expected_quality_loss());
  metrics.add("exact_lp_seconds", exact_seconds);
  metrics.add("approx_small_quality_loss", small_report.quality_loss);
  metrics.add("utility_loss_ratio", utility_loss_ratio);
  metrics.add("dilation_bound", small_report.dilation);
  metrics.add("approx_cells", big_report.cells);
  metrics.add("approx_quality_loss", big_report.quality_loss);
  metrics.add("approx_construct_seconds", big_report.construct_seconds);
  metrics.add("approx_solve_seconds", big_report.solve_seconds);
  metrics.add("approx_cells_per_second", approx_cells_per_second);
  metrics.add("approx_windows", big_report.windows);
  metrics.add("approx_window_solves_cold", big_report.window_solves_cold);
  metrics.add("approx_window_solves_warm", big_report.window_solves_warm);
  metrics.add("approx_window_reuse_hits", big_report.window_reuse_hits);
  metrics.add("approx_boundary_epsilon", big_report.boundary_epsilon);
  metrics.add("opt_pivots", registry.counter_value("opt.pivots"));
  metrics.add("opt_phase1_iterations",
              registry.counter_value("opt.phase1_iterations"));
  metrics.add("opt_phase2_iterations",
              registry.counter_value("opt.phase2_iterations"));
  bench::add_latency_percentiles(metrics, "opt_solve_us",
                                 registry.histogram("opt.solve_us"));
  bench::add_latency_percentiles(metrics, "opt_construct_us",
                                 registry.histogram("opt.construct_us"));
  bench::emit_json("BENCH_fig7_mechanisms.json", metrics);
  return 0;
}
