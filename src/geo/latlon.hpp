// Geographic coordinates.
//
// The paper's dataset lives in a Shanghai bounding box (lat in [30.7, 31.4],
// lon in [121, 122]); at that span an equirectangular local projection
// (projection.hpp) is accurate to well under the 50 m clustering threshold.
// The tests validate the projection against the exact haversine distance.
#pragma once

namespace privlocad::geo {

/// Mean Earth radius in meters (IUGG value).
inline constexpr double kEarthRadiusMeters = 6371008.8;

/// A WGS-84 geographic coordinate in decimal degrees.
struct LatLon {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  friend constexpr bool operator==(LatLon a, LatLon b) {
    return a.lat_deg == b.lat_deg && a.lon_deg == b.lon_deg;
  }
};

/// Degrees-to-radians conversion.
double deg_to_rad(double degrees);

}  // namespace privlocad::geo
