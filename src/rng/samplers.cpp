#include "rng/samplers.hpp"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <type_traits>
#include <vector>

#include "rng/lambert_w.hpp"
#include "rng/ziggurat.hpp"
#include "simd/kernels.hpp"
#include "util/status.hpp"
#include "util/validation.hpp"

namespace privlocad::rng {
namespace {

/// Acklam's rational approximation to the probit function.
double probit_approx(double p) {
  // Coefficients from Peter Acklam's algorithm (2003), public domain.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

std::atomic<NormalSampler>& sampler_slot() {
  static std::atomic<NormalSampler> slot{normal_sampler_from_env()};
  return slot;
}

double standard_normal_inverse_cdf(Engine& engine) {
  return normal_quantile(engine.uniform_positive());
}

/// The paper's Algorithm 3 polar sampler; the inverse-CDF 2-D path keeps
/// exactly this draw order so legacy streams replay bit-for-bit.
geo::Point gaussian_noise_polar(Engine& engine, double sigma) {
  const double theta = engine.uniform_in(0.0, 2.0 * std::numbers::pi);
  const double r = rayleigh_quantile(engine.uniform(), sigma);
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace

NormalSampler normal_sampler_from_env() {
  const char* env = std::getenv("PRIVLOCAD_SAMPLER");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "ziggurat") == 0) {
    return NormalSampler::kZiggurat;
  }
  if (std::strcmp(env, "icdf") == 0 ||
      std::strcmp(env, "inverse-cdf") == 0 ||
      std::strcmp(env, "inverse_cdf") == 0) {
    return NormalSampler::kInverseCdf;
  }
  throw util::StatusError(util::Status::parse_error(
      std::string("PRIVLOCAD_SAMPLER must be ziggurat | icdf, got '") + env +
      "'"));
}

NormalSampler default_normal_sampler() {
  return sampler_slot().load(std::memory_order_relaxed);
}

void set_default_normal_sampler(NormalSampler sampler) {
  sampler_slot().store(sampler, std::memory_order_relaxed);
}

double normal_quantile(double p) {
  util::require_unit_open(p, "normal_quantile argument");
  double x = probit_approx(p);
  // One Halley refinement against the exact CDF brings the error to
  // full double precision.
  const double e =
      0.5 * std::erfc(-x / std::numbers::sqrt2) - p;
  const double u =
      e * std::numbers::sqrt2 * std::sqrt(std::numbers::pi) *
      std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double standard_normal(Engine& engine) {
  if (default_normal_sampler() == NormalSampler::kZiggurat) {
    return standard_normal_ziggurat(engine);
  }
  return standard_normal_inverse_cdf(engine);
}

double normal(Engine& engine, double mean, double sigma) {
  util::require_non_negative(sigma, "normal sigma");
  return mean + sigma * standard_normal(engine);
}

void fill_standard_normal(Engine& engine, std::span<double> out,
                          NormalSampler sampler) {
  if (sampler == NormalSampler::kZiggurat) {
    fill_standard_normal_ziggurat(engine, out);
    return;
  }
  for (double& z : out) z = standard_normal_inverse_cdf(engine);
}

void fill_standard_normal(Engine& engine, std::span<double> out) {
  fill_standard_normal(engine, out, default_normal_sampler());
}

double rayleigh_quantile(double s, double sigma) {
  util::require(s >= 0.0 && s < 1.0, "rayleigh_quantile needs s in [0, 1)");
  util::require_non_negative(sigma, "rayleigh sigma");
  return sigma * std::sqrt(-2.0 * std::log1p(-s));
}

geo::Point gaussian_noise(Engine& engine, double sigma) {
  util::require_non_negative(sigma, "gaussian_noise sigma");
  if (default_normal_sampler() == NormalSampler::kZiggurat) {
    return {sigma * standard_normal_ziggurat(engine),
            sigma * standard_normal_ziggurat(engine)};
  }
  return gaussian_noise_polar(engine, sigma);
}

geo::Point gaussian_noise_2d(Engine& engine, double sigma) {
  util::require_non_negative(sigma, "gaussian_noise_2d sigma");
  return {sigma * standard_normal(engine), sigma * standard_normal(engine)};
}

void fill_gaussian_noise_2d(Engine& engine, double sigma,
                            std::span<geo::Point> out, geo::Point center) {
  util::require_non_negative(sigma, "fill_gaussian_noise_2d sigma");
  if (default_normal_sampler() == NormalSampler::kZiggurat) {
    // Per-thread sample buffer: one flat ziggurat pass produces the 2n
    // variates, then one pairing pass scales and offsets. The buffer
    // grows to the largest batch this thread has seen and is reused.
    // The pairing pass is the SIMD noise kernel operating on the point
    // array's interleaved x,y doubles in place; scalar and AVX2
    // dispatch produce identical bits (see simd/dispatch.hpp).
    static_assert(std::is_standard_layout_v<geo::Point> &&
                      sizeof(geo::Point) == 2 * sizeof(double) &&
                      offsetof(geo::Point, y) == sizeof(double),
                  "noise kernel assumes Point is two packed doubles");
    thread_local std::vector<double> samples;
    samples.resize(out.size() * 2);
    fill_standard_normal_ziggurat(engine, samples);
    if (!out.empty()) {
      simd::apply_noise_pairs(samples.data(), out.size(), sigma, center.x,
                              center.y,
                              reinterpret_cast<double*>(out.data()));
    }
    return;
  }
  for (geo::Point& p : out) p = center + gaussian_noise_polar(engine, sigma);
}

double planar_laplace_radius_quantile(double p, double epsilon) {
  util::require(p >= 0.0 && p < 1.0,
                "planar_laplace_radius_quantile needs p in [0, 1)");
  util::require_positive(epsilon, "planar Laplace epsilon");
  if (p == 0.0) return 0.0;
  const double x = (p - 1.0) / std::numbers::e;
  return -(lambert_wm1(x) + 1.0) / epsilon;
}

double planar_laplace_radius_cdf(double r, double epsilon) {
  util::require_non_negative(r, "planar Laplace radius");
  util::require_positive(epsilon, "planar Laplace epsilon");
  return 1.0 - (1.0 + epsilon * r) * std::exp(-epsilon * r);
}

geo::Point planar_laplace_noise(Engine& engine, double epsilon) {
  const double theta = engine.uniform_in(0.0, 2.0 * std::numbers::pi);
  const double r = planar_laplace_radius_quantile(engine.uniform(), epsilon);
  return {r * std::cos(theta), r * std::sin(theta)};
}

geo::Point uniform_in_disk(Engine& engine, double radius) {
  util::require_non_negative(radius, "disk radius");
  const double theta = engine.uniform_in(0.0, 2.0 * std::numbers::pi);
  const double r = radius * std::sqrt(engine.uniform());
  return {r * std::cos(theta), r * std::sin(theta)};
}

}  // namespace privlocad::rng
