#include "rng/lambert_w.hpp"

#include <cmath>

#include "util/validation.hpp"

namespace privlocad::rng {
namespace {

constexpr double kInvE = 0.36787944117144232159;  // 1/e
constexpr int kMaxIterations = 64;
constexpr double kTolerance = 1e-14;

/// One Halley step for f(w) = w e^w - x.
double halley_step(double w, double x) {
  const double ew = std::exp(w);
  const double f = w * ew - x;
  const double denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
  return w - f / denom;
}

double refine(double w, double x) {
  for (int i = 0; i < kMaxIterations; ++i) {
    const double next = halley_step(w, x);
    if (std::abs(next - w) <= kTolerance * (1.0 + std::abs(next))) {
      return next;
    }
    w = next;
  }
  return w;
}

}  // namespace

double lambert_wm1(double x) {
  util::require(x >= -kInvE && x < 0.0,
                "lambert_wm1 domain is -1/e <= x < 0");

  double w;
  if (x < -kInvE + 1e-4) {
    // Series around the branch point, lower sign: W = -1 - p - p^2/3 - ...
    const double p = std::sqrt(2.0 * (1.0 + std::exp(1.0) * x));
    w = -1.0 - p - p * p / 3.0;
  } else {
    // Asymptotic guess for x -> 0-: W ~ ln(-x) - ln(-ln(-x)).
    const double l1 = std::log(-x);
    const double l2 = std::log(-l1);
    w = l1 - l2 + l2 / l1;
  }
  return refine(w, x);
}

}  // namespace privlocad::rng
