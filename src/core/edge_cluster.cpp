#include "core/edge_cluster.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::core {

EdgeCluster::EdgeCluster(EdgeClusterConfig config)
    : config_(config), seed_(config.edge.seed) {
  // serve() bounds |x|, |y| by kMaxPlaneCoordinateM; cells of at least
  // 1 cm keep every cell index inside key_for's int32 range.
  util::require(config.cell_size_m >= 0.01,
                "edge cluster cell size must be >= 0.01 m");
  config_.edge.validate();
}

EdgeCluster::CellKey EdgeCluster::key_for(geo::Point location) const {
  const auto cx = static_cast<std::int32_t>(
      std::floor(location.x / config_.cell_size_m));
  const auto cy = static_cast<std::int32_t>(
      std::floor(location.y / config_.cell_size_m));
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

EdgeDevice& EdgeCluster::device_at(CellKey key) {
  auto it = devices_.find(key);
  if (it == devices_.end()) {
    // Each device gets its own deterministic seed derived from its cell.
    it = devices_
             .emplace(key,
                      std::make_unique<EdgeDevice>(config_.edge.with_seed(
                          seed_ ^ (key * 0x9E3779B97F4A7C15ULL))))
             .first;
  }
  return *it->second;
}

ServeResult EdgeCluster::serve(std::uint64_t user_id,
                               geo::Point true_location,
                               trace::Timestamp time) {
  // key_for's float-to-int32 cast is undefined for NaN and out-of-range
  // quotients, so the plane check comes before any cell is computed.
  if (util::Status bad = check_plane_location(true_location); !bad.ok()) {
    ServeResult failed;
    failed.outcome = ServeOutcome::kFailed;
    failed.status = std::move(bad);
    return failed;
  }
  const CellKey key = key_for(true_location);
  ++served_[key];
  return device_at(key).serve(user_id, true_location, time);
}

std::vector<EdgeCluster::CellLoad> EdgeCluster::cell_loads() const {
  std::vector<CellLoad> loads;
  loads.reserve(served_.size());
  for (const auto& [key, count] : served_) {
    CellLoad load;
    load.cx = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(key >> 32));
    load.cy = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(key & 0xFFFFFFFFULL));
    load.requests = count;
    loads.push_back(load);
  }
  std::sort(loads.begin(), loads.end(),
            [](const CellLoad& a, const CellLoad& b) {
              if (a.cx != b.cx) return a.cx < b.cx;
              return a.cy < b.cy;
            });
  return loads;
}

}  // namespace privlocad::core
