// Equirectangular projection between WGS-84 lat/lon and a local metric
// tangent plane anchored at a reference coordinate.
//
// Why equirectangular: the whole pipeline (mechanisms, attack, utilities)
// is defined on Euclidean meters. Over a metropolitan extent (the paper's
// Shanghai box is ~78 km x ~95 km) the equirectangular approximation's
// distance error stays below ~0.3%, far inside every threshold the paper
// uses (50 m clustering, 200 m attack-success radius, 500-800 m geo-IND r).
// Tests cross-check projected Euclidean distance against haversine.
#pragma once

#include "geo/latlon.hpp"
#include "geo/point.hpp"

namespace privlocad::geo {

/// Projects coordinates to/from a local plane centered on `origin`.
/// x grows east, y grows north, both in meters.
class LocalProjection {
 public:
  /// `origin` becomes the plane's (0, 0). Its latitude fixes the
  /// cos(lat) scale used for the east-west axis.
  explicit LocalProjection(LatLon origin);

  /// Maps a local point back to geographic coordinates.
  LatLon to_geo(Point local) const;

  LatLon origin() const { return origin_; }

 private:
  LatLon origin_;
  double cos_lat_;          // cos(origin latitude)
  double meters_per_deg_;   // meters per degree of latitude
};

/// Projection anchored at the centre of the paper's Shanghai study area
/// (lat in [30.7, 31.4], lon in [121, 122]).
LocalProjection shanghai_projection();

}  // namespace privlocad::geo
