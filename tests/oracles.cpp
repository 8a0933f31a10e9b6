#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <utility>

#include "rng/samplers.hpp"
#include "util/validation.hpp"

namespace privlocad::lppm {

/// The one reader of OptimalGeoIndMechanism's solved channel outside the
/// class (a friend of it).
struct ChannelAccess {
  static const std::vector<std::vector<double>>& channel(
      const OptimalGeoIndMechanism& mechanism) {
    return mechanism.channel_;
  }
  static const std::vector<geo::Point>& centers(
      const OptimalGeoIndMechanism& mechanism) {
    return mechanism.centers_;
  }
  static double epsilon(const OptimalGeoIndMechanism& mechanism) {
    return mechanism.config_.epsilon;
  }
};

}  // namespace privlocad::lppm

namespace privlocad::oracles {

// ------------------------------------------------------------------- geo

double haversine_distance(geo::LatLon a, geo::LatLon b) {
  const double phi1 = geo::deg_to_rad(a.lat_deg);
  const double phi2 = geo::deg_to_rad(b.lat_deg);
  const double dphi = phi2 - phi1;
  const double dlambda = geo::deg_to_rad(b.lon_deg - a.lon_deg);

  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h = sin_dphi * sin_dphi +
                   std::cos(phi1) * std::cos(phi2) * sin_dlambda * sin_dlambda;
  return 2.0 * geo::kEarthRadiusMeters *
         std::asin(std::min(1.0, std::sqrt(h)));
}

double rad_to_deg(double radians) {
  return radians * 180.0 / std::numbers::pi;
}

geo::Point to_local(const geo::LocalProjection& projection,
                    geo::LatLon coordinate) {
  const geo::LatLon origin = projection.origin();
  const double meters_per_deg =
      geo::kEarthRadiusMeters * std::numbers::pi / 180.0;
  return {(coordinate.lon_deg - origin.lon_deg) * meters_per_deg *
              std::cos(geo::deg_to_rad(origin.lat_deg)),
          (coordinate.lat_deg - origin.lat_deg) * meters_per_deg};
}

GeoBox shanghai_geo_box() {
  return GeoBox{geo::LatLon{30.7, 121.0}, geo::LatLon{31.4, 122.0}};
}

// ---------------------------------------------------------------- attack

std::vector<std::vector<std::size_t>> connected_components_bruteforce(
    const std::vector<geo::Point>& points, double threshold_m) {
  const std::size_t n = points.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  const double threshold2 = threshold_m * threshold_m;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = points[j].x - points[i].x;
      const double dy = points[j].y - points[i].y;
      if (dx * dx + dy * dy < threshold2) {
        const std::size_t a = find(i);
        const std::size_t b = find(j);
        if (a != b) parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  // Roots are each component's smallest index, so walking i ascending
  // fills every component in ascending order.
  std::vector<std::vector<std::size_t>> components;
  std::vector<std::size_t> slot(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (root == i) {
      slot[i] = components.size();
      components.emplace_back();
    }
    components[slot[root]].push_back(i);
  }
  std::stable_sort(components.begin(), components.end(),
                   [](const std::vector<std::size_t>& a,
                      const std::vector<std::size_t>& b) {
                     return a.size() > b.size();
                   });
  return components;
}

// ------------------------------------------------------------------- rng

double lambert_w0(double x) {
  constexpr double kInvE = 0.36787944117144232159;  // 1/e
  util::require(x >= -kInvE, "lambert_w0 domain is x >= -1/e");
  if (x == 0.0) return 0.0;

  double w;
  if (x < -kInvE + 1e-4) {
    // Series around the branch point x = -1/e: W = -1 + p - p^2/3 + ...
    const double p = std::sqrt(2.0 * (1.0 + std::exp(1.0) * x));
    w = -1.0 + p - p * p / 3.0;
  } else if (x < 3.0) {
    w = std::log1p(x);
  } else {
    // Asymptotic guess: W ~ ln x - ln ln x.
    const double l1 = std::log(x);
    const double l2 = std::log(l1);
    w = l1 - l2 + l2 / l1;
  }
  // Halley iteration on f(w) = w e^w - x.
  for (int i = 0; i < 64; ++i) {
    const double ew = std::exp(w);
    const double f = w * ew - x;
    const double next =
        w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0));
    if (std::abs(next - w) <= 1e-14 * (1.0 + std::abs(next))) return next;
    w = next;
  }
  return w;
}

double planar_laplace_radius_cdf(double r, double epsilon) {
  util::require_non_negative(r, "planar Laplace radius");
  util::require_positive(epsilon, "planar Laplace epsilon");
  return 1.0 - (1.0 + epsilon * r) * std::exp(-epsilon * r);
}

// ----------------------------------------------------------------- stats

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  util::require(!sorted_.empty(), "EmpiricalCdf needs at least one sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

// ------------------------------------------------------------------ lppm

namespace {

/// Draws `samples` first outputs and projects them onto the x axis
/// (the p0 -> p1 displacement direction).
std::vector<double> sample_projections(rng::Engine& engine,
                                       const lppm::Mechanism& mechanism,
                                       geo::Point input,
                                       std::size_t samples) {
  std::vector<double> xs;
  xs.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    xs.push_back(mechanism.obfuscate(engine, input).front().x);
  }
  return xs;
}

}  // namespace

VerifierReport verify_geo_ind(rng::Engine& engine,
                              const lppm::Mechanism& mechanism,
                              geo::Point base_location,
                              const VerifierConfig& config) {
  util::require_positive(config.radius_m, "verifier radius");
  util::require_positive(config.epsilon, "verifier epsilon");
  util::require(config.delta >= 0.0 && config.delta < 1.0,
                "verifier delta must be in [0, 1)");
  util::require(config.samples >= 100, "verifier needs >= 100 samples");
  util::require(config.bins >= 2, "verifier needs >= 2 bins");

  const geo::Point p0 = base_location;
  const geo::Point p1 = base_location + geo::Point{config.radius_m, 0.0};

  const std::vector<double> xs0 =
      sample_projections(engine, mechanism, p0, config.samples);
  const std::vector<double> xs1 =
      sample_projections(engine, mechanism, p1, config.samples);

  const auto [lo_it, hi_it] = std::minmax_element(xs0.begin(), xs0.end());
  double lo = *lo_it, hi = *hi_it;
  for (const double x : xs1) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const double width = (hi - lo) / static_cast<double>(config.bins);
  util::require(width > 0.0, "mechanism outputs are degenerate");

  // Bin masses.
  std::vector<double> mass0(config.bins, 0.0), mass1(config.bins, 0.0);
  const double unit = 1.0 / static_cast<double>(config.samples);
  auto bin_of = [&](double x) {
    return std::min(config.bins - 1,
                    static_cast<std::size_t>((x - lo) / width));
  };
  for (const double x : xs0) mass0[bin_of(x)] += unit;
  for (const double x : xs1) mass1[bin_of(x)] += unit;

  // Test sets: every single bin plus every prefix/suffix union (half-
  // lines), in both privacy-loss directions.
  const double e_eps = std::exp(config.epsilon);
  const double budget = config.delta + config.estimation_slack;
  VerifierReport report;

  auto test_set = [&](double a, double b) {
    report.worst_excess =
        std::max({report.worst_excess, a - (e_eps * b + budget),
                  b - (e_eps * a + budget)});
    report.sets_tested += 2;
  };

  double prefix0 = 0.0, prefix1 = 0.0;
  for (std::size_t b = 0; b < config.bins; ++b) {
    test_set(mass0[b], mass1[b]);
    prefix0 += mass0[b];
    prefix1 += mass1[b];
    test_set(prefix0, prefix1);              // prefix half-line
    test_set(1.0 - prefix0, 1.0 - prefix1);  // suffix half-line
  }

  report.consistent = report.worst_excess <= 0.0;
  // Clamp the reported excess at zero from below for readability.
  report.worst_excess = std::max(report.worst_excess, 0.0);
  return report;
}

const std::vector<double>& channel_row(
    const lppm::OptimalGeoIndMechanism& mechanism, std::size_t i) {
  const auto& channel = lppm::ChannelAccess::channel(mechanism);
  util::require(i < channel.size(), "channel row out of range");
  return channel[i];
}

geo::Point cell_center(const lppm::OptimalGeoIndMechanism& mechanism,
                       std::size_t i) {
  const auto& centers = lppm::ChannelAccess::centers(mechanism);
  util::require(i < centers.size(), "cell index out of range");
  return centers[i];
}

double max_constraint_violation(
    const lppm::OptimalGeoIndMechanism& mechanism) {
  const auto& channel = lppm::ChannelAccess::channel(mechanism);
  const auto& centers = lppm::ChannelAccess::centers(mechanism);
  const double epsilon = lppm::ChannelAccess::epsilon(mechanism);
  double worst = -1e300;
  for (std::size_t i = 0; i < channel.size(); ++i) {
    for (std::size_t i2 = 0; i2 < channel.size(); ++i2) {
      if (i == i2) continue;
      const double bound =
          std::exp(epsilon * geo::distance(centers[i], centers[i2]));
      for (std::size_t j = 0; j < channel.size(); ++j) {
        worst = std::max(worst, channel[i][j] - bound * channel[i2][j]);
      }
    }
  }
  return worst;
}

// --------------------------------------------------------------- utility

double efficacy_monte_carlo(rng::Engine& engine, geo::Point true_location,
                            geo::Point selected_candidate,
                            double targeting_radius_m, std::size_t samples) {
  util::require_positive(targeting_radius_m, "targeting radius");
  util::require(samples > 0, "efficacy needs samples");
  const double r2 = targeting_radius_m * targeting_radius_m;
  std::size_t relevant = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const geo::Point ad =
        selected_candidate + rng::uniform_in_disk(engine, targeting_radius_m);
    if (geo::distance_squared(ad, true_location) <= r2) ++relevant;
  }
  return static_cast<double>(relevant) / static_cast<double>(samples);
}

// ------------------------------------------------------------------- opt

opt::CsrMatrix csr_from_dense(const opt::Matrix& dense,
                              double zero_tolerance) {
  opt::CsrMatrix csr(dense.cols());
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      const double v = dense.at(r, c);
      if (std::abs(v) > zero_tolerance) csr.append(c, v);
    }
    csr.finish_row();
  }
  return csr;
}

opt::LpSolution solve_sparse(const opt::SparseLpProblem& problem,
                             const opt::SimplexOptions& options,
                             opt::SolveStats* stats) {
  opt::RevisedSimplex solver(problem, options);
  opt::LpSolution solution = solver.solve();
  if (stats != nullptr) *stats = solution.stats;
  return solution;
}

// ------------------------------------------------------------------- net

bool try_push(net::BoundedRequestQueue& queue, net::PendingRequest request) {
  std::vector<bool> admitted;
  queue.try_push_batch(std::span<net::PendingRequest>(&request, 1),
                       admitted);
  return admitted[0];
}

std::size_t queue_size(net::BoundedRequestQueue& queue) {
  std::vector<bool> admitted;
  std::size_t depth = 0;
  queue.try_push_batch({}, admitted, &depth);
  return depth;
}

}  // namespace privlocad::oracles
