// Location profiling (paper Section III-B1, Eq. 2-3).
//
// A location profile P = {(l_1, f_1), ..., (l_M, f_M)} maps inferred
// locations to visit frequencies. The profiling step clusters check-ins
// with the 50 m connectivity threshold, takes each cluster's centroid as
// the location coordinate and its size as the frequency. Both the attacker
// (on observed check-ins) and the edge device's location management module
// (on true check-ins) build profiles this way.
//
// The build is one labelling walk (attack/clustering.hpp) followed by one
// pass that sums each point into its cluster: linear in the check-ins
// plus a sort of the cluster ids. The location management module rebuilds
// every user's profile at each window close, so it calls the workspace
// overload, which allocates nothing once warm.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/clustering.hpp"
#include "geo/point.hpp"
#include "trace/check_in.hpp"

namespace privlocad::attack {

/// The paper's default connectivity threshold for profiling (50 m).
inline constexpr double kDefaultProfilingThresholdM = 50.0;

struct ProfileEntry {
  geo::Point location;       ///< cluster centroid
  std::uint64_t frequency;   ///< cluster size (visit count)
};

/// Location profile ordered by frequency, heaviest first.
class LocationProfile {
 public:
  LocationProfile() = default;

  /// Entries must already be sorted heaviest-first; enforced here.
  explicit LocationProfile(std::vector<ProfileEntry> entries);

  const std::vector<ProfileEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Total check-ins across all entries.
  std::uint64_t total_frequency() const { return total_; }

  /// Location entropy of the profile (paper Eq. 3, nats). Requires a
  /// non-empty profile.
  double entropy() const;

  /// The i-th most frequent location (0-based). Requires i < size().
  const ProfileEntry& top(std::size_t i) const;

 private:
  std::vector<ProfileEntry> entries_;
  std::uint64_t total_ = 0;
};

/// Reusable scratch for build_profile: the labelling walk's buffers
/// (GridIndex, labels, sizes), the per-cluster coordinate sums and the
/// entries. Reuse rules are ComponentLabels': one owner at a time, each
/// call re-seeds all state, and a warm workspace allocates nothing.
/// UserArena keeps one per shard, used under the shard lock.
class ProfileWorkspace {
 private:
  friend const std::vector<ProfileEntry>& build_profile(
      const std::vector<geo::Point>&, double, ProfileWorkspace&);

  ComponentLabels components_;
  std::vector<geo::Point> sums_;
  std::vector<ProfileEntry> entries_;
};

/// Builds the profile of `check_ins` via connectivity clustering into
/// `workspace` and returns its entries, heaviest first (ties: the cluster
/// holding the smallest index first). Each centroid sums its members in
/// ascending index order. The reference stays valid until the
/// workspace's next build.
const std::vector<ProfileEntry>& build_profile(
    const std::vector<geo::Point>& check_ins, double threshold_m,
    ProfileWorkspace& workspace);

/// The same build through a call-local workspace.
LocationProfile build_profile(const std::vector<geo::Point>& check_ins,
                              double threshold_m = kDefaultProfilingThresholdM);

/// Convenience overload over a trace.
LocationProfile build_profile(const trace::UserTrace& trace,
                              double threshold_m = kDefaultProfilingThresholdM);

}  // namespace privlocad::attack
