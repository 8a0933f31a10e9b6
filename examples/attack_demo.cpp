// Attack demo: plays the longitudinal location exposure attack (paper
// Section III) against two worlds --
//   (a) a user protected by one-time geo-IND (planar Laplace per report);
//   (b) the same user behind Edge-PrivLocAd's permanent n-fold Gaussian.
// and prints how close the attacker gets to the user's real home in each.
//
// Build & run:  ./build/examples/attack_demo [observations]
#include <cmath>
#include <cstdio>
#include <limits>

#include "attack/deobfuscation.hpp"
#include "core/output_selection.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/planar_laplace.hpp"
#include "rng/engine.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace privlocad;

  // The optional count must be a whole positive integer; anything else
  // ("abc", "-1", "12x") exits 2 naming the argument.
  int observations = 1000;
  if (argc > 1) {
    const auto parsed =
        util::parse_int_in(argv[1], 1, std::numeric_limits<int>::max());
    if (!parsed) {
      std::fprintf(stderr,
                   "attack_demo: observations needs a positive integer, "
                   "got '%s'\n",
                   argv[1]);
      return 2;
    }
    observations = static_cast<int>(*parsed);
  }
  const geo::Point home{3200.0, -1500.0};
  std::printf("victim home: (%.0f, %.0f); attacker observes %d ad requests\n\n",
              home.x, home.y, observations);

  // ---------------- world (a): one-time geo-IND ----------------------
  const lppm::PlanarLaplaceMechanism laplace({std::log(4.0), 200.0});
  rng::Engine engine_a(1);
  std::vector<geo::Point> observed_a;
  for (int i = 0; i < observations; ++i) {
    observed_a.push_back(laplace.obfuscate_one(engine_a, home));
  }

  attack::DeobfuscationConfig cfg_a;
  cfg_a.trim_radius_m = laplace.tail_radius(0.05);
  cfg_a.connectivity_threshold_m = cfg_a.trim_radius_m / 4.0;
  const auto inferred_a = attack::deobfuscate_top_locations(observed_a, cfg_a);

  std::printf("[one-time geo-IND, l=ln4 r=200m]\n");
  std::printf("  inferred top-1: (%.0f, %.0f)\n", inferred_a[0].location.x,
              inferred_a[0].location.y);
  std::printf("  error: %.1f m  <-- the attack works\n\n",
              geo::distance(inferred_a[0].location, home));

  // ---------------- world (b): Edge-PrivLocAd ------------------------
  lppm::BoundedGeoIndParams params;
  params.radius_m = 500.0;
  params.epsilon = 1.0;
  params.delta = 0.01;
  params.n = 10;
  const lppm::NFoldGaussianMechanism nfold(params);

  rng::Engine engine_b(2);
  const std::vector<geo::Point> candidates = nfold.obfuscate(engine_b, home);
  std::vector<geo::Point> observed_b;
  for (int i = 0; i < observations; ++i) {
    const std::size_t pick = core::select_candidate(
        engine_b, candidates, nfold.posterior_sigma());
    observed_b.push_back(candidates[pick]);
  }

  attack::DeobfuscationConfig cfg_b;
  cfg_b.trim_radius_m = nfold.tail_radius(0.05);
  cfg_b.connectivity_threshold_m = cfg_b.trim_radius_m / 4.0;
  const auto inferred_b = attack::deobfuscate_top_locations(observed_b, cfg_b);

  std::printf("[Edge-PrivLocAd, 10-fold gaussian eps=1 r=500m]\n");
  std::printf("  inferred top-1: (%.0f, %.0f)\n", inferred_b[0].location.x,
              inferred_b[0].location.y);
  std::printf("  error: %.1f m  <-- permanent noise blunts the attack\n\n",
              geo::distance(inferred_b[0].location, home));

  std::printf("key insight: in world (a) every request leaks fresh noise that\n"
              "averages away (error ~ sigma/sqrt(N)); in world (b) the\n"
              "attacker only ever sees the same %zu frozen points, so more\n"
              "observations add nothing.\n",
              candidates.size());
  return 0;
}
