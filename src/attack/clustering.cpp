#include "attack/clustering.hpp"

#include <algorithm>

#include "geo/grid_index.hpp"
#include "util/validation.hpp"

namespace privlocad::attack {

void take_component(geo::GridIndex& index, std::size_t seed,
                    double threshold_m, Cluster& component) {
  const std::vector<geo::Point>& points = index.points();
  const double threshold2 = threshold_m * threshold_m;
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
    index.for_each_within(points[component[head]], threshold_m,
                          [&](std::size_t neighbor, double d2) {
                            if (d2 < threshold2) component.push_back(neighbor);
                          });
    // take() moves slots, so the hits are taken only once the query that
    // found them has returned.
    for (std::size_t i = reached; i < component.size(); ++i) {
      index.take(component[i]);
    }
  }
}

std::vector<Cluster> connectivity_clusters(
    const std::vector<geo::Point>& points, double threshold_m) {
  util::require_positive(threshold_m, "clustering threshold");
  if (points.empty()) return {};

  // The walk's candidate scans run through the GridIndex SIMD kernel
  // (4-wide squared-distance/compare lanes over SoA spans in CSR order);
  // components are unique and each is sorted below, so the clusters are
  // identical at any dispatch level.
  geo::GridIndex index(points, threshold_m);
  std::vector<Cluster> clusters;
  clusters.reserve(16);
  for (std::size_t seed = 0; seed < points.size(); ++seed) {
    if (index.taken(seed)) continue;
    Cluster cluster;
    take_component(index, seed, threshold_m, cluster);
    std::sort(cluster.begin(), cluster.end());
    clusters.push_back(std::move(cluster));
  }

  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  return clusters;
}

geo::Point cluster_centroid(const std::vector<geo::Point>& points,
                            const Cluster& cluster) {
  util::require(!cluster.empty(), "centroid of empty cluster");
  geo::Point sum{};
  for (const std::size_t idx : cluster) sum = sum + points[idx];
  return sum / static_cast<double>(cluster.size());
}

}  // namespace privlocad::attack
