#include "adnet/advertiser.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::adnet {

const std::vector<PlatformPreset>& table1_presets() {
  // Paper Table I. Mile-based entries converted at 1609.344 m/mile.
  static const std::vector<PlatformPreset> kPresets{
      {"Google", 5000.0, 65000.0},
      {"Microsoft", 1000.0, 800000.0},
      {"Facebook", 1609.344, 80467.2},
      {"Tencent", 500.0, 25000.0},
  };
  return kPresets;
}

std::vector<Advertiser> generate_campaigns(rng::Engine& engine,
                                           const PlatformPreset& preset,
                                           std::size_t count,
                                           double area_half_extent_m,
                                           double max_radius_cap_m) {
  util::require_positive(area_half_extent_m, "campaign area half extent");
  static const std::vector<std::string> kCategories{
      "restaurant", "retail", "fitness", "entertainment", "services"};

  const double hi_radius =
      max_radius_cap_m > 0.0
          ? std::min(preset.max_radius_m, max_radius_cap_m)
          : preset.max_radius_m;
  const double lo_radius = std::min(preset.min_radius_m, hi_radius);

  std::vector<Advertiser> campaigns;
  campaigns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Advertiser a;
    a.id = i;
    a.business_location = {
        engine.uniform_in(-area_half_extent_m, area_half_extent_m),
        engine.uniform_in(-area_half_extent_m, area_half_extent_m)};
    // Log-uniform radius inside the platform's allowed range: most
    // campaigns are neighbourhood-scale, a few are city-wide.
    a.targeting_radius_m =
        lo_radius < hi_radius
            ? std::exp(engine.uniform_in(std::log(lo_radius),
                                         std::log(hi_radius)))
            : lo_radius;
    a.category = kCategories[engine.uniform_index(kCategories.size())];
    a.bid_cpm = 0.5 + engine.uniform() * 4.5;
    campaigns.push_back(std::move(a));
  }
  return campaigns;
}

}  // namespace privlocad::adnet
