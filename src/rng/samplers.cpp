#include "rng/samplers.hpp"

#include <cmath>
#include <cstddef>
#include <numbers>
#include <type_traits>
#include <vector>

#include "rng/lambert_w.hpp"
#include "rng/ziggurat.hpp"
#include "simd/kernels.hpp"
#include "util/validation.hpp"

namespace privlocad::rng {

void fill_standard_normal(Engine& engine, std::span<double> out) {
  fill_standard_normal_ziggurat(engine, out);
}

geo::Point gaussian_noise(Engine& engine, double sigma) {
  util::require_non_negative(sigma, "gaussian_noise sigma");
  return {sigma * standard_normal_ziggurat(engine),
          sigma * standard_normal_ziggurat(engine)};
}

void fill_gaussian_noise_2d(Engine& engine, double sigma,
                            std::span<geo::Point> out, geo::Point center) {
  util::require_non_negative(sigma, "fill_gaussian_noise_2d sigma");
  // Per-thread sample buffer: one flat ziggurat pass produces the 2n
  // variates, then one pairing pass scales and offsets. The buffer grows
  // to the largest batch this thread has seen and is reused. The pairing
  // pass is simd::apply_noise_pairs writing the point array's
  // interleaved x,y doubles in place.
  static_assert(std::is_standard_layout_v<geo::Point> &&
                    sizeof(geo::Point) == 2 * sizeof(double) &&
                    offsetof(geo::Point, y) == sizeof(double),
                "noise kernel assumes Point is two packed doubles");
  thread_local std::vector<double> samples;
  samples.resize(out.size() * 2);
  fill_standard_normal_ziggurat(engine, samples);
  if (!out.empty()) {
    simd::apply_noise_pairs(samples.data(), out.size(), sigma, center.x,
                            center.y, reinterpret_cast<double*>(out.data()));
  }
}

double planar_laplace_radius_quantile(double p, double epsilon) {
  util::require(p >= 0.0 && p < 1.0,
                "planar_laplace_radius_quantile needs p in [0, 1)");
  util::require_positive(epsilon, "planar Laplace epsilon");
  if (p == 0.0) return 0.0;
  const double x = (p - 1.0) / std::numbers::e;
  return -(lambert_wm1(x) + 1.0) / epsilon;
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
