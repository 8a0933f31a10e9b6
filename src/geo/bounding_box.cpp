#include "geo/bounding_box.hpp"

#include "util/validation.hpp"

namespace privlocad::geo {

BoundingBox::BoundingBox(Point min_corner, Point max_corner)
    : min_(min_corner), max_(max_corner) {
  util::require(min_.x <= max_.x && min_.y <= max_.y,
                "bounding box corners are inverted");
}

}  // namespace privlocad::geo
