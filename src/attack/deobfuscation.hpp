// Top-n location de-obfuscation attack (paper Algorithm 1).
//
// Input: a victim's obfuscated check-ins observed over a long window.
// For each of the top-n locations, the attack
//   1. clusters the remaining check-ins by connectivity (threshold theta,
//      sized to the obfuscation scale rather than the 50 m profiling
//      threshold -- obfuscated points scatter much wider),
//   2. takes the largest cluster and iteratively trims it: recompute the
//      centroid, drop members farther than r_alpha, re-admit outside
//      points closer than r_alpha, until a fixed point,
//   3. reports the final centroid as the inferred top-i location and
//      removes the cluster's points before the next round.
// r_alpha comes from the obfuscation distribution's tail (Eq. 4):
// Pr[dist > r_alpha] <= alpha, alpha = 0.05 in the paper.
//
// PERFORMANCE. The attack runs once per user over millions of users, so
// the per-call machinery is allocation-free after warmup: the grid index
// is built ONCE per call and rounds retire their cluster by leaving its
// points taken out of it (O(cluster)) instead of rebuilding, and every
// scratch buffer lives in a reusable DeobfuscationWorkspace. Stage 1 is
// the component walk of attack/clustering.hpp, which takes each point out
// of the grid as it reaches it; each round then puts the non-members back
// in O(n). Results are bit-identical to the per-round-rebuild
// formulation: components are unique, the largest is picked by seed
// order, and the centroid sums members in ascending index order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/estimators.hpp"
#include "geo/grid_index.hpp"
#include "geo/point.hpp"

namespace privlocad::attack {

struct DeobfuscationConfig {
  /// Connectivity threshold theta for stage-1 clustering, meters.
  double connectivity_threshold_m = 100.0;

  /// Trimming radius r_alpha, meters (from Mechanism::tail_radius(0.05)).
  double trim_radius_m = 600.0;

  /// Number of top locations to infer.
  std::size_t top_n = 1;

  /// Safety valve for the trimming fixed-point loop.
  std::size_t max_trim_iterations = 100;

  /// Stage-2 trimming enabled (the ablation bench turns it off).
  bool enable_trimming = true;

  /// Final location estimate over the trimmed cluster. Centroid is the
  /// paper's Algorithm 1; the geometric median is the Laplace-MLE upgrade
  /// (see attack/estimators.hpp).
  LocationEstimator estimator = LocationEstimator::kCentroid;
};

struct InferredLocation {
  geo::Point location;        ///< inferred top-location coordinate
  std::size_t support;        ///< check-ins in the final cluster
};

/// Reusable scratch for deobfuscate_top_locations: the CSR grid index
/// plus every per-round buffer (retired and membership bitmaps,
/// components, member points). Reuse rules:
///   - one workspace per thread; a workspace must never be shared between
///     concurrent calls (no internal synchronization);
///   - reuse across calls is what it is for -- each call fully re-seeds
///     the state, so results are independent of what ran before;
///   - the buffers grow to the largest input the workspace has seen and
///     keep that capacity (bounded by max check-ins per user).
/// evaluate_population keeps one workspace per pool thread; single-shot
/// callers can use the two-argument overload, which supplies a local one.
class DeobfuscationWorkspace {
 public:
  DeobfuscationWorkspace() = default;

  DeobfuscationWorkspace(const DeobfuscationWorkspace&) = delete;
  DeobfuscationWorkspace& operator=(const DeobfuscationWorkspace&) = delete;

 private:
  friend std::vector<InferredLocation> deobfuscate_top_locations(
      const std::vector<geo::Point>&, const DeobfuscationConfig&,
      DeobfuscationWorkspace&);

  geo::GridIndex index_;               ///< built once per call
  std::vector<std::uint8_t> retired_;  ///< reported by an earlier rank
  std::vector<std::uint8_t> member_;   ///< current cluster membership
  std::vector<std::size_t> largest_;   ///< largest component this round
  std::vector<std::size_t> current_;   ///< component being grown
  std::vector<geo::Point> members_;    ///< member points for the estimator
};

/// Runs Algorithm 1. Returns up to `config.top_n` inferred locations in
/// rank order; fewer if the check-ins run out. An empty input yields an
/// empty result. `workspace` provides the index and scratch buffers (see
/// its reuse rules above).
std::vector<InferredLocation> deobfuscate_top_locations(
    const std::vector<geo::Point>& observed_check_ins,
    const DeobfuscationConfig& config, DeobfuscationWorkspace& workspace);

/// Single-shot convenience: same attack through a call-local workspace.
std::vector<InferredLocation> deobfuscate_top_locations(
    const std::vector<geo::Point>& observed_check_ins,
    const DeobfuscationConfig& config);

}  // namespace privlocad::attack
