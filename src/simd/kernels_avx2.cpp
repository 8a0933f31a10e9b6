// AVX2 kernel implementations (4-wide double lanes).
//
// This is the ONLY translation unit built with -mavx2, and it is built
// WITHOUT -mfma and with -ffp-contract=off: every lane must execute the
// same sub/mul/mul/add chain as the scalar reference in
// kernels_scalar.cpp so the two dispatch levels agree bit-for-bit (the
// property tests enforce this). Intrinsics stay inside this file; the
// shared headers carry no vector types, so the rest of the build remains
// portable baseline x86-64 (or any other arch, where this TU degrades to
// the scalar forwarders below).
//
// When PRIVLOCAD_NATIVE_ARCH=OFF the PRIVLOCAD_HAVE_AVX2 macro is absent
// and the _avx2 symbols forward to the scalar kernels; the dispatcher
// never selects kAvx2 in that configuration (avx2_compiled_in() is
// false), so the forwarders exist only to keep the link closed.
#include "simd/kernels.hpp"

#ifdef PRIVLOCAD_HAVE_AVX2

#include <immintrin.h>

namespace privlocad::simd {

std::size_t scan_slots_within_avx2(const double* xs, const double* ys,
                                   std::uint32_t begin, std::uint32_t end,
                                   double qx, double qy, double r2,
                                   std::uint32_t* hit_slots,
                                   double* hit_d2) {
  std::size_t hits = 0;
  const __m256d vqx = _mm256_set1_pd(qx);
  const __m256d vqy = _mm256_set1_pd(qy);
  const __m256d vr2 = _mm256_set1_pd(r2);
  std::uint32_t s = begin;
  for (; s + 4 <= end; s += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + s), vqx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + s), vqy);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, vr2, _CMP_LE_OQ));
    if (mask == 0) continue;
    alignas(32) double d2_lanes[4];
    _mm256_store_pd(d2_lanes, d2);
    // Compact set lanes in ascending order: same visit order as scalar.
    do {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      hit_slots[hits] = s + static_cast<std::uint32_t>(lane);
      hit_d2[hits] = d2_lanes[lane];
      ++hits;
    } while (mask != 0);
  }
  // Tail (< 4 slots): the scalar reference loop, bit-identical by
  // construction.
  for (; s < end; ++s) {
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

double posterior_log_densities_avx2(const double* xs, const double* ys,
                                    std::size_t n, double mx, double my,
                                    double denom, double* out) {
  const __m256d vmx = _mm256_set1_pd(mx);
  const __m256d vmy = _mm256_set1_pd(my);
  const __m256d vden = _mm256_set1_pd(denom);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vmax = _mm256_set1_pd(-1e300);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vmx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vmy);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    // -(d2) / denom: sign flip is exact, division is correctly rounded,
    // so each lane matches the scalar expression bit-for-bit.
    const __m256d logd =
        _mm256_div_pd(_mm256_xor_pd(d2, sign_mask), vden);
    _mm256_storeu_pd(out + i, logd);
    vmax = _mm256_max_pd(vmax, logd);
  }
  // Horizontal max of the 4 lanes; max over finite doubles is
  // order-independent, so this equals the scalar running max.
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  double max_log = lanes[0];
  if (lanes[1] > max_log) max_log = lanes[1];
  if (lanes[2] > max_log) max_log = lanes[2];
  if (lanes[3] > max_log) max_log = lanes[3];
  for (; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    const double d2 = dx * dx + dy * dy;
    out[i] = -d2 / denom;
    if (out[i] > max_log) max_log = out[i];
  }
  return max_log;
}

void apply_noise_pairs_avx2(const double* samples, std::size_t n_pairs,
                            double sigma, double cx, double cy,
                            double* out_xy) {
  const std::size_t n_flat = 2 * n_pairs;
  const __m256d vsigma = _mm256_set1_pd(sigma);
  // Lane pattern over the interleaved x,y layout: [cx, cy, cx, cy]
  // (_mm256_set_pd lists lanes high-to-low).
  const __m256d vcenter = _mm256_set_pd(cy, cx, cy, cx);
  std::size_t j = 0;
  for (; j + 4 <= n_flat; j += 4) {
    const __m256d z = _mm256_loadu_pd(samples + j);
    _mm256_storeu_pd(out_xy + j,
                     _mm256_add_pd(vcenter, _mm256_mul_pd(vsigma, z)));
  }
  for (; j < n_flat; ++j) {
    out_xy[j] = ((j & 1) != 0 ? cy : cx) + sigma * samples[j];
  }
}

}  // namespace privlocad::simd

#else  // !PRIVLOCAD_HAVE_AVX2: scalar forwarders keep the link closed.

namespace privlocad::simd {

std::size_t scan_slots_within_avx2(const double* xs, const double* ys,
                                   std::uint32_t begin, std::uint32_t end,
                                   double qx, double qy, double r2,
                                   std::uint32_t* hit_slots,
                                   double* hit_d2) {
  return scan_slots_within_scalar(xs, ys, begin, end, qx, qy, r2, hit_slots,
                                  hit_d2);
}

double posterior_log_densities_avx2(const double* xs, const double* ys,
                                    std::size_t n, double mx, double my,
                                    double denom, double* out) {
  return posterior_log_densities_scalar(xs, ys, n, mx, my, denom, out);
}

void apply_noise_pairs_avx2(const double* samples, std::size_t n_pairs,
                            double sigma, double cx, double cy,
                            double* out_xy) {
  apply_noise_pairs_scalar(samples, n_pairs, sigma, cx, cy, out_xy);
}

}  // namespace privlocad::simd

#endif  // PRIVLOCAD_HAVE_AVX2
