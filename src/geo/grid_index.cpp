#include "geo/grid_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "util/validation.hpp"

namespace privlocad::geo {

GridIndex::GridIndex(std::vector<Point> points, double cell_size_m) {
  points_ = std::move(points);
  build_cells(cell_size_m);
}

void GridIndex::rebuild(const std::vector<Point>& points,
                        double cell_size_m) {
  points_.assign(points.begin(), points.end());
  build_cells(cell_size_m);
}

void GridIndex::build_cells(double cell_size_m) {
  util::require_positive(cell_size_m, "grid cell size");
  util::require(points_.size() <= std::numeric_limits<std::uint32_t>::max(),
                "GridIndex point count exceeds 32-bit addressing");
  cell_size_ = cell_size_m;
  const std::size_t n = points_.size();

  // Bucket the points by cell: an open-addressing table (linear probing,
  // load <= 1/2) hands out bucket ids in first-seen order and counts each
  // bucket's points. cell_of_ holds each point's bucket until the scatter.
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2 * n, 8));
  const int shift = 64 - std::countr_zero(capacity);
  table_.assign(capacity, TableSlot{0, kEmptySlot});
  buckets_.clear();
  bucket_cell_.clear();
  cell_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CellKey key = pack(cell_coordinate(points_[i].x),
                             cell_coordinate(points_[i].y));
    // Fibonacci hashing: the product's top bits mix every key bit.
    std::size_t probe = (key * 0x9E3779B97F4A7C15ULL) >> shift;
    while (table_[probe].bucket != kEmptySlot && table_[probe].key != key) {
      probe = (probe + 1) & (capacity - 1);
    }
    TableSlot& slot = table_[probe];
    if (slot.bucket == kEmptySlot) {
      slot = {key, static_cast<std::uint32_t>(buckets_.size())};
      buckets_.emplace_back(key, slot.bucket);
      bucket_cell_.push_back(0);
    }
    ++bucket_cell_[slot.bucket];
    cell_of_[i] = slot.bucket;
  }

  // Sort the distinct cells into keys_ and lay out their CSR groups.
  // live_ends_ starts at each group's start and serves as the scatter
  // cursor, so it ends at the group's end: every point live.
  std::sort(buckets_.begin(), buckets_.end());
  const std::size_t cells = buckets_.size();
  keys_.resize(cells);
  starts_.resize(cells + 1);
  live_ends_.resize(cells);
  std::uint32_t offset = 0;
  for (std::size_t c = 0; c < cells; ++c) {
    const auto [key, bucket] = buckets_[c];
    keys_[c] = key;
    starts_[c] = offset;
    live_ends_[c] = offset;
    offset += bucket_cell_[bucket];
    bucket_cell_[bucket] = static_cast<std::uint32_t>(c);
  }
  starts_[cells] = offset;

  // Scatter in index order: each cell's points keep ascending index order,
  // the CSR a sort by (cell key, index) gives.
  order_.resize(n);
  slot_xs_.resize(n);
  slot_ys_.resize(n);
  slot_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t cell = bucket_cell_[cell_of_[i]];
    const std::uint32_t slot = live_ends_[cell]++;
    cell_of_[i] = cell;
    order_[slot] = static_cast<std::uint32_t>(i);
    // SoA coordinate spans in slot order feed the scan kernel with
    // contiguous loads; slot_of_ lets take() find a point's slot in O(1).
    slot_xs_[slot] = points_[i].x;
    slot_ys_[slot] = points_[i].y;
    slot_of_[i] = slot;
  }
}

void GridIndex::throw_cell_out_of_range() const {
  // The message names no coordinate: the points are users' check-ins.
  std::string message =
      "GridIndex cell index outside int32 (non-finite coordinate, or "
      "cells of ";
  message += std::to_string(cell_size_);
  message += " m too small for its magnitude)";
  throw util::InvalidArgument(message);
}

}  // namespace privlocad::geo
