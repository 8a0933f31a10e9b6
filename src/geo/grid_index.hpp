// Uniform-grid spatial index over a fixed set of points.
//
// The de-obfuscation attack (paper Alg. 1) needs, for tens of thousands of
// users, "all check-ins within theta of this check-in" queries. A uniform
// grid with cell size equal to the query radius answers those in O(points
// in the 3x3 neighborhood), which makes the connectivity clustering linear
// in practice instead of quadratic.
//
// Storage is CSR-style rather than a hash map of buckets: point indices
// are grouped by cell in one flat array (`order_`), with a sorted unique
// cell-key array (`keys_`) and an offsets array (`starts_`) addressing the
// groups. Queries binary-search the 3x3 neighbor keys and then walk
// contiguous memory -- this is the attack's inner loop over every check-in
// pair, and the flat layout removes the per-bucket allocations and hash
// probing of the previous unordered_map design.
//
// The candidate walk itself is vectorized: alongside `order_` the index
// keeps the point coordinates as SoA spans in CSR slot order
// (`slot_xs_`/`slot_ys_`, plus a slot-indexed tombstone array), so each
// cell's scan is a contiguous 4-wide squared-distance/compare kernel
// (simd/kernels.hpp) instead of a per-point indirect load and an
// out-of-line distance_squared call. Scalar and AVX2 dispatch levels
// produce identical visit sets, order, and d2 bits (see the dispatch
// contract in simd/dispatch.hpp).
//
// Two amortization features serve the attack's round structure:
//   - rebuild() re-indexes a new point set in place, reusing every
//     internal buffer's capacity (a DeobfuscationWorkspace keeps one
//     index alive across all users a thread processes);
//   - tombstones (kill / revive_all) hide points from queries without
//     touching the CSR arrays, so Alg. 1 removes each round's cluster in
//     O(cluster) instead of rebuilding the index per rank.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/point.hpp"
#include "simd/kernels.hpp"

namespace privlocad::geo {

/// Build once (or rebuild in place), query many times. Queries see every
/// point that has not been tombstoned since the last build/revive_all.
class GridIndex {
 public:
  /// Empty index; rebuild() before querying.
  GridIndex() = default;

  /// Indexes `points` with grid cells of side `cell_size_m` (> 0).
  /// The referenced vector is copied; indices returned by queries refer to
  /// positions in that original vector.
  GridIndex(std::vector<Point> points, double cell_size_m);

  /// Re-indexes `points` in place with cells of side `cell_size_m` (> 0),
  /// reusing the internal buffers' capacity. All points come back alive.
  void rebuild(const std::vector<Point>& points, double cell_size_m);

  /// Calls `fn(index, distance_squared)` for each live point p with
  /// distance(p, query) <= radius_m, allocating nothing. `radius_m` may
  /// exceed the cell size (more cells are scanned). The already-computed
  /// squared distance is handed to the callback so strict (< threshold)
  /// filters do not recompute it.
  template <typename Fn>
  void for_each_within(Point query, double radius_m, Fn&& fn) const;

  /// Tombstones point `index`: subsequent queries skip it. O(1).
  void kill(std::size_t index) {
    alive_[index] = 0;
    slot_alive_[slot_of_[index]] = 0;
  }

  /// True when `index` has not been tombstoned since the last build.
  bool alive(std::size_t index) const { return alive_[index] != 0; }

  /// Clears every tombstone (all points queryable again).
  void revive_all() {
    alive_.assign(points_.size(), 1);
    slot_alive_.assign(points_.size(), 1);
  }

  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }

 private:
  using CellKey = std::uint64_t;

  /// Shared CSR construction for the constructor and rebuild().
  void build_cells(double cell_size_m);

  CellKey key_for(Point p) const;
  static CellKey pack(std::int32_t cx, std::int32_t cy);
  /// Position of `key` in keys_, or keys_.size() when absent.
  std::size_t find_cell(CellKey key) const;

  std::vector<Point> points_;
  double cell_size_ = 1.0;
  std::vector<CellKey> keys_;          ///< sorted unique occupied cells
  std::vector<std::uint32_t> starts_;  ///< keys_.size()+1 offsets into order_
  std::vector<std::uint32_t> order_;   ///< point indices grouped by cell
  std::vector<std::uint8_t> alive_;    ///< tombstones: 0 = hidden
  std::vector<double> slot_xs_;        ///< point x in CSR slot order (SoA)
  std::vector<double> slot_ys_;        ///< point y in CSR slot order (SoA)
  std::vector<std::uint8_t> slot_alive_;  ///< tombstones in slot order
  std::vector<std::uint32_t> slot_of_;    ///< point index -> CSR slot
  /// rebuild() scratch (cell key, point index) kept for capacity reuse.
  std::vector<std::pair<CellKey, std::uint32_t>> keyed_;
};

template <typename Fn>
void GridIndex::for_each_within(Point query, double radius_m, Fn&& fn) const {
  // Hit buffer for one kernel call: cells are scanned in chunks of at
  // most kScanChunk slots so the buffers stay on the stack. Hits come
  // back in ascending slot order, which is exactly the visit order of
  // the pre-SIMD per-point loop.
  constexpr std::uint32_t kScanChunk = 256;
  std::uint32_t hit_slots[kScanChunk];
  double hit_d2[kScanChunk];
  const double r2 = radius_m * radius_m;
  const auto cx = static_cast<std::int32_t>(std::floor(query.x / cell_size_));
  const auto cy = static_cast<std::int32_t>(std::floor(query.y / cell_size_));
  const auto reach = static_cast<std::int32_t>(
      std::ceil(radius_m / cell_size_));
  for (std::int32_t dx = -reach; dx <= reach; ++dx) {
    for (std::int32_t dy = -reach; dy <= reach; ++dy) {
      const std::size_t cell = find_cell(pack(cx + dx, cy + dy));
      if (cell == keys_.size()) continue;
      std::uint32_t begin = starts_[cell];
      const std::uint32_t end = starts_[cell + 1];
      while (begin < end) {
        const std::uint32_t chunk_end =
            end - begin > kScanChunk ? begin + kScanChunk : end;
        const std::size_t hits = simd::scan_slots_within(
            slot_xs_.data(), slot_ys_.data(), slot_alive_.data(), begin,
            chunk_end, query.x, query.y, r2, hit_slots, hit_d2);
        for (std::size_t h = 0; h < hits; ++h) {
          fn(static_cast<std::size_t>(order_[hit_slots[h]]), hit_d2[h]);
        }
        begin = chunk_end;
      }
    }
  }
}

}  // namespace privlocad::geo
