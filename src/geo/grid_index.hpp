// Uniform-grid spatial index over a fixed set of points.
//
// The de-obfuscation attack (paper Alg. 1) and the profile rebuild
// (Alg. 2) need, for every check-in of a user, "all check-ins within
// theta of this check-in" queries. A uniform grid with cell size equal to
// the query radius answers one in O(live points in the 3x3
// neighborhood). That alone does not make a component walk linear: a
// home cluster of m check-ins sits in a few cells, so m queries over the
// same cells cost O(m^2). take() is what does: a walk takes each point
// out of the grid when it reaches it, so later queries scan only points
// not yet reached (see attack/clustering.hpp).
//
// Storage is CSR-style rather than a hash map of buckets: point indices
// are grouped by cell in one flat array (`order_`), with a sorted unique
// cell-key array (`keys_`) and an offsets array (`starts_`) addressing the
// groups. A build buckets the points by cell through an open-addressing
// table whose capacity is reused across rebuilds, sorts only the distinct
// cells, and scatters the points into their cells in index order -- linear
// in the points plus a sort of the occupied cells.
//
// A key packs the cell's signed (x, y) indices with the sign bits flipped,
// so key order is signed (x, y) order and a row of cells (one x, a span of
// y) is one contiguous run of `keys_`. for_each_within does one binary
// search per row it reaches, each starting where the previous row's scan
// stopped: three searches for the component walk's radius = cell size.
//
// Alongside `order_` the index keeps the point coordinates as SoA spans
// in CSR slot order (`slot_xs_`/`slot_ys_`), so each cell's scan of its
// live prefix is one contiguous squared-distance/compare loop
// (simd::scan_slots_within) instead of a per-point indirect load and an
// out-of-line distance_squared call.
//
// Two ways to hide points serve the callers' round structure:
//   - rebuild() re-indexes a new point set in place, reusing every
//     internal buffer's capacity (a DeobfuscationWorkspace keeps one
//     index alive across all users a thread processes); every point
//     comes back queryable;
//   - take / put_back move a point out of (or back into) its cell's live
//     prefix of slots in O(1). Queries scan only live prefixes, so a
//     taken point costs nothing. Alg. 1 leaves each round's cluster
//     taken, which removes it in O(cluster) instead of rebuilding the
//     index per rank.
//
// Cell indices are int32: an index outside that range (a coordinate more
// than ~2.1e9 cells from the origin, e.g. 1e4 m with 1e-6 m cells) throws
// InvalidArgument rather than wrapping.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geo/point.hpp"
#include "simd/kernels.hpp"

namespace privlocad::geo {

/// Build once (or rebuild in place), query many times. Queries see every
/// point not taken since the last build.
class GridIndex {
 public:
  /// Empty index; rebuild() before querying.
  GridIndex() = default;

  /// Indexes `points` with grid cells of side `cell_size_m` (> 0).
  /// The referenced vector is copied; indices returned by queries refer to
  /// positions in that original vector. Throws InvalidArgument when a
  /// point's cell index falls outside int32.
  GridIndex(std::vector<Point> points, double cell_size_m);

  /// Re-indexes `points` in place with cells of side `cell_size_m` (> 0),
  /// reusing the internal buffers' capacity. All points come back
  /// untaken, in the slot order of a fresh build.
  void rebuild(const std::vector<Point>& points, double cell_size_m);

  /// Calls `fn(index, distance_squared)` for each live point p with
  /// distance(p, query) <= radius_m, allocating nothing. `radius_m` may
  /// exceed the cell size (more cells are scanned). The already-computed
  /// squared distance is handed to the callback so strict (< threshold)
  /// filters do not recompute it. `fn` must not take() or put_back():
  /// both move slots under the running scan, so collect the hits and take
  /// them after the query returns. Throws InvalidArgument when the
  /// query's cell index falls outside int32.
  template <typename Fn>
  void for_each_within(Point query, double radius_m, Fn&& fn) const;

  /// Takes point `index` out of the grid: queries skip it until
  /// put_back() or rebuild(). O(1): its slot swaps with the last live
  /// slot of its cell, and the cell's live prefix shrinks by one. The
  /// point must not be taken already.
  void take(std::size_t index) {
    swap_slots(slot_of_[index], --live_ends_[cell_of_[index]]);
  }

  /// Returns a taken point `index` to its cell's live prefix. O(1).
  void put_back(std::size_t index) {
    swap_slots(slot_of_[index], live_ends_[cell_of_[index]]++);
  }

  /// True when `index` is taken (see take()).
  bool taken(std::size_t index) const {
    return slot_of_[index] >= live_ends_[cell_of_[index]];
  }

  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }
  double cell_size() const { return cell_size_; }

 private:
  using CellKey = std::uint64_t;
  static constexpr std::int64_t kMinCell =
      std::numeric_limits<std::int32_t>::min();
  static constexpr std::int64_t kMaxCell =
      std::numeric_limits<std::int32_t>::max();

  /// A build's cell table entry: an occupied cell and its bucket.
  struct TableSlot {
    CellKey key;
    std::uint32_t bucket;
  };
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  /// Shared CSR construction for the constructor and rebuild().
  void build_cells(double cell_size_m);

  /// Cell index of coordinate `v`; throws InvalidArgument outside int32
  /// (NaN included).
  std::int64_t cell_coordinate(double v) const {
    const double c = std::floor(v / cell_size_);
    if (!(c >= static_cast<double>(kMinCell) &&
          c <= static_cast<double>(kMaxCell))) {
      throw_cell_out_of_range();
    }
    return static_cast<std::int64_t>(c);
  }
  [[noreturn]] void throw_cell_out_of_range() const;

  /// Key of cell (cx, cy), both inside int32. Flipping the sign bits
  /// makes unsigned key order signed (x, y) order.
  static CellKey pack(std::int64_t cx, std::int64_t cy) {
    const std::uint64_t ux = static_cast<std::uint32_t>(cx) ^ 0x80000000u;
    const std::uint64_t uy = static_cast<std::uint32_t>(cy) ^ 0x80000000u;
    return (ux << 32) | uy;
  }

  /// Calls fn on every live point of `cell` within sqrt(r2) of `query`,
  /// in slot order.
  template <typename Fn>
  void scan_cell(std::size_t cell, Point query, double r2, Fn& fn) const;

  /// Swaps the contents of slots `a` and `b` (same cell) and re-points
  /// slot_of_ at both.
  void swap_slots(std::uint32_t a, std::uint32_t b) {
    std::swap(order_[a], order_[b]);
    std::swap(slot_xs_[a], slot_xs_[b]);
    std::swap(slot_ys_[a], slot_ys_[b]);
    slot_of_[order_[a]] = a;
    slot_of_[order_[b]] = b;
  }

  std::vector<Point> points_;
  double cell_size_ = 1.0;
  std::vector<CellKey> keys_;          ///< sorted unique occupied cells
  std::vector<std::uint32_t> starts_;  ///< keys_.size()+1 offsets into order_
  /// Per cell: end of its live prefix [starts_[c], live_ends_[c]); the
  /// taken points sit in [live_ends_[c], starts_[c + 1]).
  std::vector<std::uint32_t> live_ends_;
  std::vector<std::uint32_t> order_;   ///< point indices grouped by cell
  std::vector<double> slot_xs_;        ///< point x in CSR slot order (SoA)
  std::vector<double> slot_ys_;        ///< point y in CSR slot order (SoA)
  std::vector<std::uint32_t> slot_of_;  ///< point index -> CSR slot
  std::vector<std::uint32_t> cell_of_;  ///< point index -> position in keys_
  // build_cells' scratch, kept so rebuild() reuses its capacity.
  std::vector<TableSlot> table_;  ///< open addressing, power-of-two size
  /// (cell key, bucket) per bucket in first-seen order, then sorted.
  std::vector<std::pair<CellKey, std::uint32_t>> buckets_;
  /// Per bucket: its point count, then its position in keys_.
  std::vector<std::uint32_t> bucket_cell_;
};

template <typename Fn>
void GridIndex::scan_cell(std::size_t cell, Point query, double r2,
                          Fn& fn) const {
  // Hit buffer for one kernel call: a cell is scanned in chunks of at
  // most kScanChunk slots so the buffers stay on the stack. Hits come
  // back in ascending slot order, which is exactly the visit order of a
  // per-point loop.
  constexpr std::uint32_t kScanChunk = 256;
  std::uint32_t hit_slots[kScanChunk];
  double hit_d2[kScanChunk];
  std::uint32_t begin = starts_[cell];
  const std::uint32_t end = live_ends_[cell];
  while (begin < end) {
    const std::uint32_t chunk_end =
        end - begin > kScanChunk ? begin + kScanChunk : end;
    const std::size_t hits = simd::scan_slots_within(
        slot_xs_.data(), slot_ys_.data(), begin, chunk_end, query.x, query.y,
        r2, hit_slots, hit_d2);
    for (std::size_t h = 0; h < hits; ++h) {
      fn(static_cast<std::size_t>(order_[hit_slots[h]]), hit_d2[h]);
    }
    begin = chunk_end;
  }
}

template <typename Fn>
void GridIndex::for_each_within(Point query, double radius_m, Fn&& fn) const {
  const double r2 = radius_m * radius_m;
  const std::int64_t cx = cell_coordinate(query.x);
  const std::int64_t cy = cell_coordinate(query.y);
  // No point lies in a cell outside int32, so the scan is clamped there;
  // a NaN radius scans nothing.
  const double reach_cells = std::ceil(radius_m / cell_size_);
  const std::int64_t reach =
      std::isnan(reach_cells)
          ? -1
          : static_cast<std::int64_t>(std::clamp(
                reach_cells, -1.0, static_cast<double>(kMaxCell - kMinCell)));
  const std::int64_t x_end = std::min(cx + reach, kMaxCell);
  const std::int64_t y_begin = std::max(cy - reach, kMinCell);
  const std::int64_t y_end = std::min(cy + reach, kMaxCell);
  if (y_begin > y_end) return;
  // Rows ascend in x and each row is one run of keys_, so a row's search
  // starts where the previous row's scan stopped.
  auto cell = keys_.begin();
  for (std::int64_t x = std::max(cx - reach, kMinCell); x <= x_end; ++x) {
    cell = std::lower_bound(cell, keys_.end(), pack(x, y_begin));
    const CellKey row_end = pack(x, y_end);
    for (; cell != keys_.end() && *cell <= row_end; ++cell) {
      scan_cell(static_cast<std::size_t>(cell - keys_.begin()), query, r2,
                fn);
    }
  }
}

}  // namespace privlocad::geo
