// A metro-area cluster of edge devices (paper Section V-A: "edge devices
// provide services to nearby mobile users whose locations are closely
// distributed").
//
// The cluster partitions the study area into square cells, one edge device
// per cell; an LBA request is served by the device owning the location's
// cell. Devices share nothing: a user who moves between cells has an
// independent profile slice, top-location set and frozen candidate sets
// on each device that has seen them, each built from that cell's
// check-ins alone.
//
// This models the deployment topology the paper's scalability evaluation
// (Tables II/III) assumes, and lets the benches measure per-device load.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/edge_device.hpp"

namespace privlocad::core {

struct EdgeClusterConfig {
  EdgeConfig edge;            ///< per-device configuration
  double cell_size_m = 20000; ///< side of one device's service cell

  /// Fluent copy setting the per-device base seed (edge.seed).
  EdgeClusterConfig with_seed(std::uint64_t s) const {
    EdgeClusterConfig copy = *this;
    copy.edge.seed = s;
    return copy;
  }
};

class EdgeCluster {
 public:
  /// Per-device seeds derive from config.edge.seed and the cell key.
  explicit EdgeCluster(EdgeClusterConfig config);

  /// Typed serving through the device owning the location's cell. Never
  /// throws (see EdgeDevice::serve). A location failing
  /// check_plane_location is kFailed with kInvalidArgument before it is
  /// mapped to a cell: no device is created and no cell counts it.
  ServeResult serve(std::uint64_t user_id, geo::Point true_location,
                    trace::Timestamp time);

  /// Number of devices that have served at least one request.
  std::size_t active_devices() const { return devices_.size(); }

  /// One active cell and its request count.
  struct CellLoad {
    std::int32_t cx = 0;
    std::int32_t cy = 0;
    std::size_t requests = 0;
  };

  /// Every cell that served at least one request, sorted by (cx, cy) --
  /// the complete load map, however far the population wandered (load
  /// stats must not silently miss devices outside a fixed scan window).
  std::vector<CellLoad> cell_loads() const;

 private:
  using CellKey = std::uint64_t;
  CellKey key_for(geo::Point location) const;
  EdgeDevice& device_at(CellKey key);

  EdgeClusterConfig config_;
  std::uint64_t seed_;
  std::unordered_map<CellKey, std::unique_ptr<EdgeDevice>> devices_;
  std::unordered_map<CellKey, std::size_t> served_;
};

}  // namespace privlocad::core
