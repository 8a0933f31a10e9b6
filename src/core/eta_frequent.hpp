// Eta-frequent location set (paper Definition 6, Algorithm 2).
//
// Given a location profile ordered by frequency, the eta-frequent set is
// the minimal prefix of top locations whose accumulated frequency reaches
// eta. It is what the location-management module hands to the obfuscation
// module at the end of every time window: the locations worth permanent
// protection.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/profile.hpp"

namespace privlocad::core {

/// Algorithm 2: the minimal frequency-ordered prefix with total frequency
/// >= eta (an absolute check-in count). If the whole profile sums below
/// eta, the entire profile is returned (every location is "top").
std::vector<attack::ProfileEntry> eta_frequent_set(
    const attack::LocationProfile& profile, std::uint64_t eta);

/// Length of the eta-frequent prefix of `entries` (heaviest first, not
/// empty) for eta = ceil(fraction * total frequency), at least 1.
/// `fraction` must be in (0, 1]. What eta_frequent_set_fraction returns,
/// without building the profile or copying the set.
std::size_t eta_frequent_prefix(
    const std::vector<attack::ProfileEntry>& entries, double fraction);

/// Convenience: eta as a fraction of the profile's total check-ins,
/// e.g. 0.8 protects the locations covering 80% of activity.
/// `fraction` must be in (0, 1].
std::vector<attack::ProfileEntry> eta_frequent_set_fraction(
    const attack::LocationProfile& profile, double fraction);

}  // namespace privlocad::core
