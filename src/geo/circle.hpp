// Circles and circle-circle intersection area.
//
// The paper's utilization rate (Definition 4) is the area fraction
// |AOI ∩ AOR| / |AOI| where AOI and AOR are circles of the same targeting
// radius R centered at the true and the obfuscated location. We implement
// the general two-circle lens-area formula so the utility module can also
// evaluate asymmetric radii (used by the ablation benches).
#pragma once

#include "geo/point.hpp"

namespace privlocad::geo {

/// A circle in the local metric plane. Radius must be >= 0; enforced by
/// the constructor so downstream area formulas never see negatives.
class Circle {
 public:
  Circle(Point center, double radius_m);

  Point center() const { return center_; }
  double radius() const { return radius_; }

  /// Area in square meters.
  double area() const;

 private:
  Point center_;
  double radius_;
};

/// Exact area of the intersection (lens) of two circles, in square meters.
/// Handles the disjoint (0) and fully-contained (area of the smaller) cases.
double intersection_area(const Circle& a, const Circle& b);

/// Utilization rate of `aoi` given `aor`: intersection_area / aoi.area().
/// Returns 1.0 when the circles coincide; requires aoi.radius() > 0.
double overlap_fraction(const Circle& aoi, const Circle& aor);

}  // namespace privlocad::geo
