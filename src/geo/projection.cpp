#include "geo/projection.hpp"

#include <cmath>
#include <numbers>

#include "util/validation.hpp"

namespace privlocad::geo {

LocalProjection::LocalProjection(LatLon origin)
    : origin_(origin),
      cos_lat_(std::cos(deg_to_rad(origin.lat_deg))),
      meters_per_deg_(kEarthRadiusMeters * std::numbers::pi / 180.0) {
  util::require(origin.lat_deg > -89.0 && origin.lat_deg < 89.0,
                "projection origin latitude must avoid the poles");
}

LatLon LocalProjection::to_geo(Point local) const {
  return {origin_.lat_deg + local.y / meters_per_deg_,
          origin_.lon_deg + local.x / (meters_per_deg_ * cos_lat_)};
}

LocalProjection shanghai_projection() {
  return LocalProjection(LatLon{31.05, 121.5});
}

}  // namespace privlocad::geo
