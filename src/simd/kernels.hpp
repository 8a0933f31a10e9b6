// The hot kernels: distance scans, posterior scoring, noise pairing.
//
// These are the inner loops the paper's pipeline actually spends time in:
//
//   - scan_slots_within: the GridIndex 3x3-neighborhood candidate walk
//     (paper Alg. 1 stage 1 and the connectivity clustering it shares);
//   - posterior_log_densities: Eq. 17-18 output-selection scoring;
//   - apply_noise_pairs: the n-fold Gaussian release's scale-and-offset
//     pass over batched ziggurat variates (lppm/gaussian and
//     lppm/baselines via rng::fill_gaussian_noise_2d).
//
// Each kernel is one plain loop over SoA doubles, and each evaluates its
// arithmetic in a fixed order with no FMA contraction (kernels.cpp builds
// with -ffp-contract=off), so its output bits do not depend on the flags
// a user builds with:
//   - scan_slots_within: hits in ascending slot order, with
//     d2 = (x-qx)*(x-qx) + (y-qy)*(y-qy) evaluated sub/mul/mul/add.
//   - posterior_log_densities: out[i] = -(d2) / denom in the same order;
//     the exp/sum normalization stays with the caller.
//   - apply_noise_pairs: each element is the mul/add chain
//     center + sigma * z.
// tests/property_test.cpp checks the scan and posterior kernels against
// brute-force references in tests/oracles; tests/rng_test.cpp checks the
// noise pass against per-point draws and the seeded stream golden.
#pragma once

#include <cstddef>
#include <cstdint>

namespace privlocad::simd {

/// Scans CSR slots [begin, end) of a slot-ordered SoA point array and
/// appends every point with squared distance to (qx, qy) <= r2 to
/// hit_slots/hit_d2, in ascending slot order. Every slot in the range is
/// a candidate: GridIndex hides a point by moving it past its cell's live
/// prefix, so the caller passes only live slots. The hit buffers must
/// hold at least end - begin entries. Returns the hit count.
std::size_t scan_slots_within(const double* xs, const double* ys,
                              std::uint32_t begin, std::uint32_t end,
                              double qx, double qy, double r2,
                              std::uint32_t* hit_slots, double* hit_d2);

/// Writes out[i] = -((xs[i]-mx)^2 + (ys[i]-my)^2) / denom for i in
/// [0, n) and returns max(-1e300, max_i out[i]) (the -1e300 floor keeps
/// a finite seed value observable when every density underflows to
/// -inf). denom must be > 0.
double posterior_log_densities(const double* xs, const double* ys,
                               std::size_t n, double mx, double my,
                               double denom, double* out);

/// The 2-D noise pairing pass: for j in [0, 2 * n_pairs),
///   out_xy[j] = (j even ? cx : cy) + sigma * samples[j].
/// out_xy is the interleaved x0,y0,x1,y1,... layout of a geo::Point
/// array (two doubles, no padding -- static_asserted at the call site).
void apply_noise_pairs(const double* samples, std::size_t n_pairs,
                       double sigma, double cx, double cy, double* out_xy);

}  // namespace privlocad::simd
