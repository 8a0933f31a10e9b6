// Axis-aligned bounding boxes in local metric coordinates.
// Used by the trace generator to confine synthetic users to the study area
// and by the grid index to size its buckets.
#pragma once

#include "geo/point.hpp"

namespace privlocad::geo {

/// Axis-aligned box in the local metric plane. Degenerate (zero-area)
/// boxes are permitted; inverted bounds are rejected.
class BoundingBox {
 public:
  BoundingBox(Point min_corner, Point max_corner);

  Point min_corner() const { return min_; }
  Point max_corner() const { return max_; }
  double width() const { return max_.x - min_.x; }
  double height() const { return max_.y - min_.y; }

 private:
  Point min_;
  Point max_;
};

}  // namespace privlocad::geo
