// Ablation: the LP-based optimal geo-IND mechanism (Bordenabe et al.,
// CCS 2014 -- the related-work comparator) vs. the planar Laplace, at
// equal epsilon on a discrete grid.
//
// Expected shape (from the related work): the optimal mechanism's
// expected quality loss is below the Laplace's 2/eps, and the gap widens
// with an informative prior -- the optimal channel specializes to where
// the user actually is, which calibrated noise cannot.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "lppm/optimal_mechanism.hpp"
#include "util/timer.hpp"

int main() {
  using namespace privlocad;

  bench::print_header(
      "Ablation -- optimal geo-IND mechanism vs planar Laplace "
      "(grid 4x4 @ 250 m)");

  std::printf("%10s %14s %16s %18s %12s\n", "level l", "laplace E[d]",
              "optimal uniform", "optimal informed", "LP time");
  for (const double level : {std::log(2.0), std::log(4.0), std::log(6.0)}) {
    const double eps = level / 200.0;

    lppm::OptimalMechanismConfig config;
    config.per_side = 4;
    config.cell_spacing_m = 250.0;
    config.epsilon = eps;

    util::Timer timer;
    const lppm::OptimalGeoIndMechanism uniform(config);

    // Informative prior: 70% of mass on one cell (a home-dominated user).
    config.prior.assign(16, 0.02);
    config.prior[5] = 0.70;
    const lppm::OptimalGeoIndMechanism informed(config);
    const double lp_seconds = timer.elapsed_seconds();

    std::printf("%10.3f %14.0f %16.0f %18.0f %10.2fs\n", level, 2.0 / eps,
                uniform.expected_quality_loss(),
                informed.expected_quality_loss(), lp_seconds);
  }
  std::printf("\nexpected: optimal <= laplace at every level; the informed "
              "prior cuts the loss further\n");
  return 0;
}
