#include "attack/profile.hpp"

#include <algorithm>

#include "stats/entropy.hpp"
#include "util/validation.hpp"

namespace privlocad::attack {

LocationProfile::LocationProfile(std::vector<ProfileEntry> entries)
    : entries_(std::move(entries)) {
  util::require(std::is_sorted(entries_.begin(), entries_.end(),
                               [](const ProfileEntry& a,
                                  const ProfileEntry& b) {
                                 return a.frequency > b.frequency;
                               }),
                "profile entries must be sorted heaviest-first");
  for (const ProfileEntry& e : entries_) total_ += e.frequency;
}

double LocationProfile::entropy() const {
  util::require(!entries_.empty(), "entropy of empty profile");
  std::vector<std::uint64_t> freqs;
  freqs.reserve(entries_.size());
  for (const ProfileEntry& e : entries_) freqs.push_back(e.frequency);
  return stats::location_entropy(freqs);
}

const ProfileEntry& LocationProfile::top(std::size_t i) const {
  util::require(i < entries_.size(), "profile top index out of range");
  return entries_[i];
}

const std::vector<ProfileEntry>& build_profile(
    const std::vector<geo::Point>& check_ins, double threshold_m,
    ProfileWorkspace& workspace) {
  ComponentLabels& components = workspace.components_;
  components.label(check_ins, threshold_m);
  // Ascending index order per cluster: the summation order of a centroid
  // over a sorted cluster, so the bits match it.
  workspace.sums_.assign(components.count(), geo::Point{});
  for (std::size_t i = 0; i < check_ins.size(); ++i) {
    geo::Point& sum = workspace.sums_[components.of(i)];
    sum = sum + check_ins[i];
  }
  workspace.entries_.clear();
  for (const std::uint32_t c : components.ranked()) {
    const std::uint32_t size = components.size(c);
    workspace.entries_.push_back(
        {workspace.sums_[c] / static_cast<double>(size), size});
  }
  return workspace.entries_;
}

LocationProfile build_profile(const std::vector<geo::Point>& check_ins,
                              double threshold_m) {
  ProfileWorkspace workspace;
  return LocationProfile(build_profile(check_ins, threshold_m, workspace));
}

LocationProfile build_profile(const trace::UserTrace& trace,
                              double threshold_m) {
  return build_profile(trace::positions(trace), threshold_m);
}

}  // namespace privlocad::attack
