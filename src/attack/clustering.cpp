#include "attack/clustering.hpp"

#include <algorithm>
#include <numeric>

#include "util/validation.hpp"

namespace privlocad::attack {

void take_component(geo::GridIndex& index, std::size_t seed,
                    Cluster& component) {
  const double threshold2 = index.cell_size() * index.cell_size();
  component.assign(1, seed);
  index.take(seed);
  // BFS with `component` as the queue: [0, head) has been expanded.
  for (std::size_t head = 0; head < component.size(); ++head) {
    const std::size_t reached = component.size();
    // Paper: connected iff dist < theta (strict); grid query is <=, so
    // filter exact ties out using the squared distance the grid already
    // computed. Measure-zero for continuous noise but it matters for
    // degenerate/duplicated inputs in tests. Every hit is untaken, so it
    // is new to the component.
    index.for_each_within(index.points()[component[head]],
                          index.cell_size(),
                          [&](std::size_t neighbor, double d2) {
                            if (d2 < threshold2) {
                              component.push_back(neighbor);
                            }
                          });
    // take() moves slots, so the hits are taken only once the query that
    // found them has returned.
    for (std::size_t i = reached; i < component.size(); ++i) {
      index.take(component[i]);
    }
  }
}

void ComponentLabels::label(const std::vector<geo::Point>& points,
                            double threshold_m) {
  util::require_positive(threshold_m, "clustering threshold");
  // The walk's candidate scans run through the GridIndex scan kernel
  // (squared-distance/compare over SoA spans in CSR order); components
  // are unique and labels ignore walk order.
  index_.rebuild(points, threshold_m);
  label_.resize(points.size());
  size_.clear();
  for (std::size_t seed = 0; seed < points.size(); ++seed) {
    if (index_.taken(seed)) continue;
    take_component(index_, seed, walk_);
    const auto component = static_cast<std::uint32_t>(size_.size());
    for (const std::size_t member : walk_) label_[member] = component;
    size_.push_back(static_cast<std::uint32_t>(walk_.size()));
  }
  // Seeds ascend, so component numbers order components by smallest index.
  ranked_.resize(size_.size());
  std::iota(ranked_.begin(), ranked_.end(), 0u);
  std::sort(ranked_.begin(), ranked_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (size_[a] != size_[b]) return size_[a] > size_[b];
              return a < b;
            });
}

std::vector<Cluster> connectivity_clusters(
    const std::vector<geo::Point>& points, double threshold_m) {
  ComponentLabels labels;
  labels.label(points, threshold_m);
  // position[c]: where component c lands in the report order. Gathering
  // in ascending index order leaves each cluster sorted.
  std::vector<std::uint32_t> position(labels.count());
  std::vector<Cluster> clusters(labels.count());
  for (std::size_t rank = 0; rank < labels.count(); ++rank) {
    const std::uint32_t c = labels.ranked()[rank];
    position[c] = static_cast<std::uint32_t>(rank);
    clusters[rank].reserve(labels.size(c));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    clusters[position[labels.of(i)]].push_back(i);
  }
  return clusters;
}

}  // namespace privlocad::attack
