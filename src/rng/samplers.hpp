// Samplers for every distribution the paper's mechanisms use.
//
// All planar samplers follow the paper's polar-coordinates recipe
// (Section V-C, Eq. 12-16): draw an angle theta ~ U[0, 2*pi), draw a radius
// by inverting the radial CDF, and emit (r cos theta, r sin theta). Keeping
// the transforms explicit (rather than delegating to <random>) makes every
// sampled stream bit-reproducible across platforms and lets tests validate
// the exact formulas from the paper.
//
// GAUSSIAN SAMPLER SELECTION. Standard-normal draws (and the 2-D Gaussian
// noise built from them) go through one of two interchangeable samplers:
//
//   - NormalSampler::kZiggurat (default): the Marsaglia-Tsang ziggurat
//     (rng/ziggurat.hpp). ~1 engine draw and no transcendentals per
//     variate on the fast path; the population-scale hot paths (trace
//     jitter, n-fold releases) run on this one.
//   - NormalSampler::kInverseCdf: the original probit inversion
//     (normal_quantile of a uniform). Exactly one engine draw per
//     variate; reproduces this repo's pre-ziggurat streams bit-for-bit.
//
// Both samplers produce exactly N(0, 1) marginals; they differ only in
// speed and in WHICH pseudo-random sequence a given seed yields.
// Determinism contract: a fixed seed plus a fixed sampler choice always
// reproduces identical traces, tables, and attack results. Switching the
// sampler switches the stream, so goldens recorded under one sampler only
// replay under that sampler. Select at startup with PRIVLOCAD_SAMPLER
// ("ziggurat" | "icdf"), or programmatically via
// set_default_normal_sampler().
#pragma once

#include <span>

#include "geo/point.hpp"
#include "rng/engine.hpp"

namespace privlocad::rng {

/// Which standard-normal sampler the process uses (see file comment).
enum class NormalSampler {
  kZiggurat,    ///< Marsaglia-Tsang ziggurat: fastest, default
  kInverseCdf,  ///< probit inversion: legacy stream, one draw per variate
};

/// The process-wide sampler. Initialized once from
/// normal_sampler_from_env().
NormalSampler default_normal_sampler();

/// The sampler PRIVLOCAD_SAMPLER names: "ziggurat", or "icdf" (alias
/// "inverse-cdf"/"inverse_cdf"); ziggurat when unset or empty. Throws
/// util::StatusError (kParseError) on any other value: an experiment must
/// never silently draw from a different stream than its environment
/// claims.
NormalSampler normal_sampler_from_env();

/// Overrides the process-wide sampler (tests and A/B benches). Takes
/// effect for all subsequent draws; not intended to be flipped
/// mid-experiment (the stream changes where it flips).
void set_default_normal_sampler(NormalSampler sampler);

/// Standard normal variate through the selected sampler.
double standard_normal(Engine& engine);

/// N(mean, sigma^2) variate; requires sigma >= 0.
double normal(Engine& engine, double mean, double sigma);

/// Inverse of the standard normal CDF (probit). Domain (0, 1).
/// (Acklam's rational approximation, |error| < 1.15e-9, refined by one
/// Halley step to full double precision.)
double normal_quantile(double p);

/// Fills `out` with i.i.d. standard normal variates through the selected
/// sampler. This is the batched API the hot loops use: the ziggurat body
/// is inlined once per span instead of once per call site, and callers
/// can reuse one buffer across batches.
void fill_standard_normal(Engine& engine, std::span<double> out);

/// Same, with an explicit sampler choice (A/B benches, equivalence tests).
void fill_standard_normal(Engine& engine, std::span<double> out,
                          NormalSampler sampler);

/// Polar 2-D Gaussian noise vector with per-axis standard deviation
/// `sigma`. Under the ziggurat sampler this is a PAIR of independent
/// draws (x, y) = sigma * (z1, z2); under the inverse-CDF sampler it is
/// exactly the paper's Algorithm 3 polar sampler (theta uniform, radius
/// from the Rayleigh inverse CDF), preserving the legacy stream. Both
/// yield i.i.d. N(0, sigma^2) marginals on x and y.
geo::Point gaussian_noise(Engine& engine, double sigma);

/// 2-D Gaussian noise as paired standard-normal draws through the
/// selected sampler: (sigma * z1, sigma * z2).
geo::Point gaussian_noise_2d(Engine& engine, double sigma);

/// Fills `out` with `center + sigma * (z1, z2)` noise points in one
/// batched pass -- the n-fold mechanism's release loop. Under the
/// ziggurat sampler the 2*n variates come from one
/// fill_standard_normal pass over a per-thread sample buffer; under the
/// inverse-CDF sampler each point uses the legacy polar recipe so the
/// per-point stream matches gaussian_noise exactly.
void fill_gaussian_noise_2d(Engine& engine, double sigma,
                            std::span<geo::Point> out,
                            geo::Point center = {});

/// Radial inverse CDF of the 2-D Gaussian (Rayleigh quantile):
/// F_R^{-1}(s) = sigma * sqrt(-2 ln(1 - s)), s in [0, 1).
double rayleigh_quantile(double s, double sigma);

/// Planar Laplace noise with privacy parameter `epsilon` (1/m), as in
/// Andres et al. 2013: density proportional to exp(-epsilon * |noise|).
/// Radius sampled by inverting C(r) = 1 - (1 + eps r) e^{-eps r} via the
/// Lambert W function, branch -1.
geo::Point planar_laplace_noise(Engine& engine, double epsilon);

/// Radial inverse CDF of the planar Laplace distribution:
/// C^{-1}(p) = -(1/eps) * (W_{-1}((p - 1)/e) + 1), p in [0, 1).
double planar_laplace_radius_quantile(double p, double epsilon);

/// Radial CDF of the planar Laplace distribution (used by the attack to
/// compute the trimming radius r_alpha): C(r) = 1 - (1 + eps r) e^{-eps r}.
double planar_laplace_radius_cdf(double r, double epsilon);

/// Uniform point in the disk of radius `radius` centered at the origin
/// (area-uniform: radius sampled as R * sqrt(u)). Used by the paper's
/// naive post-processing baseline.
geo::Point uniform_in_disk(Engine& engine, double radius);

}  // namespace privlocad::rng
