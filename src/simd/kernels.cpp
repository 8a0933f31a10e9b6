// The hot kernels (see kernels.hpp).
//
// This TU compiles with -ffp-contract=off (see src/simd/CMakeLists.txt):
// the goldens recorded under tests/ must not depend on the compiler flags
// a user builds with, and a build that let the compiler fuse a mul+add
// here into an FMA would round d2 and the noise offsets differently.
#include "simd/kernels.hpp"

namespace privlocad::simd {

std::size_t scan_slots_within(const double* xs, const double* ys,
                              std::uint32_t begin, std::uint32_t end,
                              double qx, double qy, double r2,
                              std::uint32_t* hit_slots, double* hit_d2) {
  std::size_t hits = 0;
  for (std::uint32_t s = begin; s < end; ++s) {
    const double dx = xs[s] - qx;
    const double dy = ys[s] - qy;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= r2) {
      hit_slots[hits] = s;
      hit_d2[hits] = d2;
      ++hits;
    }
  }
  return hits;
}

double posterior_log_densities(const double* xs, const double* ys,
                               std::size_t n, double mx, double my,
                               double denom, double* out) {
  double max_log = -1e300;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    const double d2 = dx * dx + dy * dy;
    out[i] = -d2 / denom;
    if (out[i] > max_log) max_log = out[i];
  }
  return max_log;
}

void apply_noise_pairs(const double* samples, std::size_t n_pairs,
                       double sigma, double cx, double cy, double* out_xy) {
  const std::size_t n_flat = 2 * n_pairs;
  for (std::size_t j = 0; j < n_flat; ++j) {
    out_xy[j] = ((j & 1) != 0 ? cy : cx) + sigma * samples[j];
  }
}

}  // namespace privlocad::simd
