#include "geo/latlon.hpp"

#include <numbers>

namespace privlocad::geo {

double deg_to_rad(double degrees) {
  return degrees * std::numbers::pi / 180.0;
}

}  // namespace privlocad::geo
