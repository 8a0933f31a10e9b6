// Samplers for every distribution the paper's mechanisms use.
//
// The planar Laplace and uniform-disk samplers follow the paper's
// polar-coordinates recipe (Section V-C, Eq. 12-16): draw an angle
// theta ~ U[0, 2*pi), draw a radius by inverting the radial CDF, and emit
// (r cos theta, r sin theta). Keeping the transforms explicit (rather
// than delegating to <random>) makes every sampled stream
// bit-reproducible across platforms and lets tests validate the exact
// formulas from the paper.
//
// GAUSSIAN DRAWS. Every standard-normal variate in the library -- and
// the 2-D Gaussian noise built from pairs of them -- comes from ONE
// sampler: the Marsaglia-Tsang ziggurat (rng/ziggurat.hpp), ~1 engine
// draw and no transcendentals per variate on the fast path. The paper's
// n-fold release (Alg. 3) needs i.i.d. N(0, sigma^2) noise on each axis;
// an independent pair sigma * (z1, z2) is exactly that distribution, so
// the release draws the pair instead of a polar (theta, Rayleigh radius)
// sample. Determinism contract: the engine seed alone fixes every stream
// -- traces, tables, and attack results replay bit-for-bit.
#pragma once

#include <span>

#include "geo/point.hpp"
#include "rng/engine.hpp"

namespace privlocad::rng {

/// Fills `out` with i.i.d. standard normal variates. This is the batched
/// API the hot loops use: the ziggurat body is inlined once per span
/// instead of once per call site, and callers can reuse one buffer
/// across batches. Consumes the engine exactly like repeated
/// standard_normal_ziggurat draws.
void fill_standard_normal(Engine& engine, std::span<double> out);

/// 2-D Gaussian noise vector with per-axis standard deviation `sigma`:
/// the independent pair (x, y) = sigma * (z1, z2), i.e. i.i.d.
/// N(0, sigma^2) marginals on x and y (paper Alg. 3's noise law).
geo::Point gaussian_noise(Engine& engine, double sigma);

/// Fills `out` with `center + sigma * (z1, z2)` noise points in one
/// batched pass -- the n-fold mechanism's release loop. The 2*n variates
/// come from one fill_standard_normal pass over a per-thread sample
/// buffer, so the stream matches per-point gaussian_noise calls exactly.
void fill_gaussian_noise_2d(Engine& engine, double sigma,
                            std::span<geo::Point> out,
                            geo::Point center = {});

/// Planar Laplace noise with privacy parameter `epsilon` (1/m), as in
/// Andres et al. 2013: density proportional to exp(-epsilon * |noise|).
/// Radius sampled by inverting C(r) = 1 - (1 + eps r) e^{-eps r} via the
/// Lambert W function, branch -1.
geo::Point planar_laplace_noise(Engine& engine, double epsilon);

/// Radial inverse CDF of the planar Laplace distribution:
/// C^{-1}(p) = -(1/eps) * (W_{-1}((p - 1)/e) + 1), p in [0, 1).
double planar_laplace_radius_quantile(double p, double epsilon);

/// Uniform point in the disk of radius `radius` centered at the origin
/// (area-uniform: radius sampled as R * sqrt(u)). Used by the paper's
/// naive post-processing baseline.
geo::Point uniform_in_disk(Engine& engine, double radius);

}  // namespace privlocad::rng
