#include "core/eta_frequent.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::core {

namespace {

/// Length of the shortest prefix of `entries` whose frequencies sum to at
/// least `eta`, or all of them.
std::size_t prefix_reaching(const std::vector<attack::ProfileEntry>& entries,
                            std::uint64_t eta) {
  std::uint64_t accumulated = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    accumulated += entries[i].frequency;
    if (accumulated >= eta) return i + 1;
  }
  return entries.size();
}

std::vector<attack::ProfileEntry> prefix(
    const attack::LocationProfile& profile, std::size_t length) {
  return {profile.entries().begin(),
          profile.entries().begin() + static_cast<std::ptrdiff_t>(length)};
}

}  // namespace

std::vector<attack::ProfileEntry> eta_frequent_set(
    const attack::LocationProfile& profile, std::uint64_t eta) {
  util::require(eta > 0, "eta must be > 0");
  return prefix(profile, prefix_reaching(profile.entries(), eta));
}

std::size_t eta_frequent_prefix(
    const std::vector<attack::ProfileEntry>& entries, double fraction) {
  util::require(fraction > 0.0 && fraction <= 1.0,
                "eta fraction must be in (0, 1]");
  util::require(!entries.empty(), "eta-frequent set of empty profile");
  std::uint64_t total = 0;
  for (const attack::ProfileEntry& e : entries) total += e.frequency;
  const auto eta = static_cast<std::uint64_t>(
      std::ceil(fraction * static_cast<double>(total)));
  return prefix_reaching(entries, std::max<std::uint64_t>(eta, 1));
}

std::vector<attack::ProfileEntry> eta_frequent_set_fraction(
    const attack::LocationProfile& profile, double fraction) {
  return prefix(profile, eta_frequent_prefix(profile.entries(), fraction));
}

}  // namespace privlocad::core
