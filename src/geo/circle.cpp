#include "geo/circle.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/validation.hpp"

namespace privlocad::geo {

Circle::Circle(Point center, double radius_m)
    : center_(center), radius_(radius_m) {
  util::require_non_negative(radius_m, "circle radius");
}

double Circle::area() const { return std::numbers::pi * radius_ * radius_; }

double intersection_area(const Circle& a, const Circle& b) {
  const double d = distance(a.center(), b.center());
  const double r1 = a.radius();
  const double r2 = b.radius();

  if (d >= r1 + r2) return 0.0;                   // disjoint
  if (d <= std::abs(r1 - r2)) {                   // one inside the other
    const double r = std::min(r1, r2);
    return std::numbers::pi * r * r;
  }

  // General lens: sum of the two circular segments cut by the radical line.
  const double d1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d);
  const double d2 = d - d1;
  const double seg1 =
      r1 * r1 * std::acos(std::clamp(d1 / r1, -1.0, 1.0)) -
      d1 * std::sqrt(std::max(0.0, r1 * r1 - d1 * d1));
  const double seg2 =
      r2 * r2 * std::acos(std::clamp(d2 / r2, -1.0, 1.0)) -
      d2 * std::sqrt(std::max(0.0, r2 * r2 - d2 * d2));
  return seg1 + seg2;
}

double overlap_fraction(const Circle& aoi, const Circle& aor) {
  util::require_positive(aoi.radius(), "AOI radius");
  return intersection_area(aoi, aor) / aoi.area();
}

}  // namespace privlocad::geo
