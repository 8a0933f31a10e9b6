#include "geo/grid_index.hpp"

#include <algorithm>
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

  // Sort point indices by cell key (ties by index, so bucket order is the
  // input order) and compress into CSR: unique keys + offsets.
  const std::size_t n = points_.size();
  keyed_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    keyed_[i] = {key_for(points_[i]), static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed_.begin(), keyed_.end());

  cell_of_.resize(n);
  keys_.clear();
  starts_.clear();
  keys_.reserve(n / 2 + 1);
  starts_.reserve(n / 2 + 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (keys_.empty() || keys_.back() != keyed_[i].first) {
      keys_.push_back(keyed_[i].first);
      starts_.push_back(static_cast<std::uint32_t>(i));
    }
    cell_of_[keyed_[i].second] = static_cast<std::uint32_t>(keys_.size() - 1);
  }
  starts_.push_back(static_cast<std::uint32_t>(n));

  order_.resize(n);
  slot_xs_.resize(n);
  slot_ys_.resize(n);
  slot_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t idx = keyed_[i].second;
    order_[i] = idx;
    // SoA coordinate spans in slot order feed the SIMD scan kernel with
    // contiguous loads; slot_of_ lets take() find a point's slot in O(1).
    slot_xs_[i] = points_[idx].x;
    slot_ys_[i] = points_[idx].y;
    slot_of_[idx] = static_cast<std::uint32_t>(i);
  }
  live_ends_.assign(starts_.begin() + 1, starts_.end());
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

GridIndex::CellKey GridIndex::key_for(Point p) const {
  return pack(static_cast<std::int32_t>(cell_coordinate(p.x)),
              static_cast<std::int32_t>(cell_coordinate(p.y)));
}

GridIndex::CellKey GridIndex::pack(std::int32_t cx, std::int32_t cy) {
  // Bias to unsigned so negative cells pack without sign-extension clashes.
  const auto ux = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(cx));
  const auto uy = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(cy));
  return (ux << 32) | uy;
}

std::size_t GridIndex::find_cell(CellKey key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return keys_.size();
  return static_cast<std::size_t>(it - keys_.begin());
}

}  // namespace privlocad::geo
