#include "attack/deobfuscation.hpp"

#include <algorithm>

#include "attack/clustering.hpp"
#include "util/validation.hpp"

namespace privlocad::attack {
namespace {

void validate(const DeobfuscationConfig& c) {
  util::require_positive(c.connectivity_threshold_m,
                         "connectivity threshold theta");
  util::require_positive(c.trim_radius_m, "trimming radius r_alpha");
  util::require(c.top_n >= 1, "top_n must be >= 1");
  util::require(c.max_trim_iterations >= 1,
                "max_trim_iterations must be >= 1");
}

/// Centroid of the current members. Ascending index order keeps the
/// floating-point summation order of the pre-workspace implementation,
/// so estimates stay bit-identical.
geo::Point member_centroid(const std::vector<geo::Point>& points,
                           const std::vector<std::uint8_t>& member) {
  geo::Point sum{};
  std::size_t count = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (member[i]) {
      sum = sum + points[i];
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

/// Stage-2 trimming (Algorithm 1, TRIMMING): refine the membership bitmap
/// to the fixed point of "keep exactly the unretired points within
/// r_alpha of the evolving centroid". Returns the final centroid.
geo::Point trim_cluster(const std::vector<geo::Point>& points,
                        const std::vector<std::uint8_t>& retired,
                        std::vector<std::uint8_t>& member,
                        const DeobfuscationConfig& config) {
  // Membership compares squared distances: one multiply replaces a sqrt
  // per point per iteration (ties at exactly r_alpha are measure-zero for
  // continuous noise).
  const double trim_radius2 = config.trim_radius_m * config.trim_radius_m;
  geo::Point centroid = member_centroid(points, member);
  for (std::size_t iter = 0; iter < config.max_trim_iterations; ++iter) {
    bool changed = false;
    std::size_t member_count = 0;
    // One pass decides membership against the current centroid: drops the
    // far members (Alg. 1: 13-15) and admits the near outsiders (16-18).
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (retired[i]) continue;
      const bool should_belong =
          geo::distance_squared(points[i], centroid) <= trim_radius2;
      if (static_cast<bool>(member[i]) != should_belong) {
        member[i] = should_belong ? 1 : 0;
        changed = true;
      }
      if (should_belong) ++member_count;
    }
    if (member_count == 0) {
      // Trimming ate the whole cluster (r_alpha far below the data's
      // spread). Keep the last centroid rather than divide by zero.
      return centroid;
    }
    if (!changed) break;
    centroid = member_centroid(points, member);
  }
  return centroid;
}

}  // namespace

std::vector<InferredLocation> deobfuscate_top_locations(
    const std::vector<geo::Point>& observed_check_ins,
    const DeobfuscationConfig& config, DeobfuscationWorkspace& ws) {
  validate(config);

  std::vector<InferredLocation> inferred;
  inferred.reserve(config.top_n);
  if (observed_check_ins.empty()) return inferred;

  // One index build per call; each round retires its cluster by leaving
  // it taken instead of a rebuild.
  ws.index_.rebuild(observed_check_ins, config.connectivity_threshold_m);
  const std::vector<geo::Point>& points = ws.index_.points();
  const std::size_t n = points.size();
  ws.retired_.assign(n, 0);
  std::size_t live_count = n;

  for (std::size_t rank = 0; rank < config.top_n && live_count > 0;
       ++rank) {
    // Stage 1: largest connected component (dist < theta, strict) among
    // the live points. Seeds scan ascending, so the component discovered
    // first at any given size contains the smallest live index --
    // strictly-greater replacement therefore reproduces the old
    // (size desc, front asc) cluster ranking exactly. Points retired in
    // earlier ranks stay taken, so taken() skips them too; afterwards
    // every live point is taken.
    ws.largest_.clear();
    for (std::size_t seed = 0; seed < n; ++seed) {
      if (ws.index_.taken(seed)) continue;
      take_component(ws.index_, seed, ws.current_);
      if (ws.current_.size() > ws.largest_.size()) {
        ws.largest_.swap(ws.current_);
      }
    }

    ws.member_.assign(n, 0);
    for (const std::size_t idx : ws.largest_) ws.member_[idx] = 1;

    geo::Point centroid =
        config.enable_trimming
            ? trim_cluster(points, ws.retired_, ws.member_, config)
            : member_centroid(points, ws.member_);

    // One membership pass (this used to be two near-identical partition
    // loops): gather the member points for the estimator and the support
    // count together.
    ws.members_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.member_[i]) ws.members_.push_back(points[i]);
    }
    const std::size_t support = ws.members_.size();
    // The trimming loop always steers by the centroid (cheap, stable);
    // the configured estimator refines the FINAL estimate only.
    if (config.estimator != LocationEstimator::kCentroid && support > 0) {
      centroid = estimate_location(ws.members_, config.estimator);
    }
    // A fully-trimmed cluster contributes no support but still yields the
    // centroid estimate; remove the original cluster either way so the
    // next round makes progress (Alg. 1: 8).
    if (support == 0) {
      for (const std::size_t idx : ws.largest_) ws.member_[idx] = 1;
    }
    // Members are retired and stay taken; every other live point goes
    // back into the grid for the next rank's stage 1.
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.retired_[i]) continue;
      if (ws.member_[i]) {
        ws.retired_[i] = 1;
        --live_count;
      } else {
        ws.index_.put_back(i);
      }
    }

    inferred.push_back({centroid, std::max<std::size_t>(support, 1)});
  }
  return inferred;
}

std::vector<InferredLocation> deobfuscate_top_locations(
    const std::vector<geo::Point>& observed_check_ins,
    const DeobfuscationConfig& config) {
  DeobfuscationWorkspace workspace;
  return deobfuscate_top_locations(observed_check_ins, config, workspace);
}

}  // namespace privlocad::attack
