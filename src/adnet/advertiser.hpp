// Advertisers and radius-targeting campaigns (paper Section II-A).
//
// An advertiser pins a business location and a targeting radius; the ad
// network matches users whose (reported) location falls within that radius.
// Table I of the paper surveys the radius ranges four major platforms
// allow; those presets are reproduced here and drive the campaign
// generator used by the examples and integration tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.hpp"
#include "rng/engine.hpp"

namespace privlocad::adnet {

/// Geo-targeting categories (paper Section II-A). The paper's third,
/// area (city/district) targeting, is not simulated.
enum class TargetingType {
  kRadius,   ///< circle around the business location (the privacy-critical one)
  kCountry,  ///< whole-country; in this single-country simulator: match-all
};

/// One advertising campaign. Radius targeting is the default and the
/// paper's focus; country targeting matches every location.
struct Advertiser {
  std::uint64_t id = 0;
  geo::Point business_location;
  double targeting_radius_m = 5000.0;
  std::string category;      ///< business type, e.g. "restaurant"
  double bid_cpm = 1.0;      ///< bid price per mille, for auction ordering

  TargetingType targeting = TargetingType::kRadius;
};

/// A platform's allowed targeting-radius range (paper Table I).
struct PlatformPreset {
  std::string platform;
  double min_radius_m;
  double max_radius_m;
};

/// The four platforms the paper surveys: Google (5-65 km),
/// Microsoft (1-800 km), Facebook (1.6-80 km), Tencent (0.5-25 km).
const std::vector<PlatformPreset>& table1_presets();

/// Generates `count` synthetic campaigns with businesses uniform in a
/// square of half-extent `area_half_extent_m` and radii log-uniform within
/// the preset's range (clamped to `max_radius_cap_m` when positive --
/// city-scale simulations don't want 800 km campaigns).
std::vector<Advertiser> generate_campaigns(rng::Engine& engine,
                                           const PlatformPreset& preset,
                                           std::size_t count,
                                           double area_half_extent_m,
                                           double max_radius_cap_m = 25000.0);

}  // namespace privlocad::adnet
