// Scalar kernel implementations + the dispatch-level entry points.
//
// This TU compiles with -ffp-contract=off (see src/simd/CMakeLists.txt):
// the scalar loops below are the reference semantics the AVX2 lanes must
// reproduce bit-for-bit, so the compiler must not fuse any mul+add into
// an FMA here while the vector TU keeps them separate (or vice versa).
#include "simd/kernels.hpp"

#include "simd/dispatch.hpp"

namespace privlocad::simd {

std::size_t scan_slots_within_scalar(const double* xs, const double* ys,
                                     std::uint32_t begin, std::uint32_t end,
                                     double qx, double qy, double r2,
                                     std::uint32_t* hit_slots,
                                     double* hit_d2) {
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

double posterior_log_densities_scalar(const double* xs, const double* ys,
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

void apply_noise_pairs_scalar(const double* samples, std::size_t n_pairs,
                              double sigma, double cx, double cy,
                              double* out_xy) {
  const std::size_t n_flat = 2 * n_pairs;
  for (std::size_t j = 0; j < n_flat; ++j) {
    out_xy[j] = ((j & 1) != 0 ? cy : cx) + sigma * samples[j];
  }
}

// ------------------------------------------- dispatch-level entry points

std::size_t scan_slots_within(const double* xs, const double* ys,
                              std::uint32_t begin, std::uint32_t end,
                              double qx, double qy, double r2,
                              std::uint32_t* hit_slots, double* hit_d2) {
  if (active_dispatch_level() == DispatchLevel::kAvx2) {
    return scan_slots_within_avx2(xs, ys, begin, end, qx, qy, r2, hit_slots,
                                  hit_d2);
  }
  return scan_slots_within_scalar(xs, ys, begin, end, qx, qy, r2, hit_slots,
                                  hit_d2);
}

double posterior_log_densities(const double* xs, const double* ys,
                               std::size_t n, double mx, double my,
                               double denom, double* out) {
  if (active_dispatch_level() == DispatchLevel::kAvx2) {
    return posterior_log_densities_avx2(xs, ys, n, mx, my, denom, out);
  }
  return posterior_log_densities_scalar(xs, ys, n, mx, my, denom, out);
}

void apply_noise_pairs(const double* samples, std::size_t n_pairs,
                       double sigma, double cx, double cy, double* out_xy) {
  if (active_dispatch_level() == DispatchLevel::kAvx2) {
    apply_noise_pairs_avx2(samples, n_pairs, sigma, cx, cy, out_xy);
    return;
  }
  apply_noise_pairs_scalar(samples, n_pairs, sigma, cx, cy, out_xy);
}

}  // namespace privlocad::simd
