#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <span>
#include <string>
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

bool box_contains(const geo::BoundingBox& box, geo::Point p) {
  const geo::Point lo = box.min_corner();
  const geo::Point hi = box.max_corner();
  return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
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

geo::Point cluster_centroid(const std::vector<geo::Point>& points,
                            const std::vector<std::size_t>& cluster) {
  util::require(!cluster.empty(), "centroid of empty cluster");
  geo::Point sum{};
  for (const std::size_t idx : cluster) sum = sum + points[idx];
  return sum / static_cast<double>(cluster.size());
}

// ------------------------------------------------------------------ simd

std::vector<std::pair<std::uint32_t, double>> points_within_bruteforce(
    const std::vector<geo::Point>& points, std::uint32_t begin, geo::Point q,
    double r2) {
  std::vector<std::pair<std::uint32_t, double>> hits;
  for (std::uint32_t i = begin; i < points.size(); ++i) {
    const double d2 = geo::distance_squared(points[i], q);
    if (d2 <= r2) hits.emplace_back(i, d2);
  }
  return hits;
}

std::vector<double> log_densities_bruteforce(
    const std::vector<geo::Point>& points, geo::Point mean, double denom) {
  std::vector<double> out;
  for (const geo::Point& p : points) {
    out.push_back(-geo::distance_squared(p, mean) / denom);
  }
  return out;
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
  return max_constraint_violation(lppm::ChannelAccess::channel(mechanism),
                                  lppm::ChannelAccess::centers(mechanism),
                                  lppm::ChannelAccess::epsilon(mechanism));
}

double max_constraint_violation(
    const std::vector<std::vector<double>>& channel,
    const std::vector<geo::Point>& centers, double epsilon) {
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

using opt::LpSolution;
using opt::LpStatus;
using opt::SimplexOptions;
using opt::SolveStats;

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void LpProblem::validate() const {
  util::require(!objective.empty(), "LP needs at least one variable");
  const std::size_t n = objective.size();
  util::require(eq_lhs.rows() == eq_rhs.size(),
                "A_eq has " + std::to_string(eq_lhs.rows()) +
                    " rows but b_eq has " + std::to_string(eq_rhs.size()) +
                    " entries");
  util::require(ub_lhs.rows() == ub_rhs.size(),
                "A_ub has " + std::to_string(ub_lhs.rows()) +
                    " rows but b_ub has " + std::to_string(ub_rhs.size()) +
                    " entries");
  util::require(eq_lhs.rows() == 0 || eq_lhs.cols() == n,
                "A_eq has " + std::to_string(eq_lhs.cols()) +
                    " columns but the LP has " + std::to_string(n) +
                    " variables");
  util::require(ub_lhs.rows() == 0 || ub_lhs.cols() == n,
                "A_ub has " + std::to_string(ub_lhs.cols()) +
                    " columns but the LP has " + std::to_string(n) +
                    " variables");
}

namespace {

/// Dense tableau: `rows` constraint rows + 1 cost row; `cols` structural
/// columns + 1 rhs column. basis_[i] is the column basic in row i.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), t_(rows + 1, cols + 1), basis_(rows, 0) {}

  double& at(std::size_t r, std::size_t c) { return t_.at(r, c); }
  double at(std::size_t r, std::size_t c) const { return t_.at(r, c); }
  double& cost(std::size_t c) { return t_.at(rows_, c); }
  double cost(std::size_t c) const { return t_.at(rows_, c); }
  double& rhs(std::size_t r) { return t_.at(r, cols_); }
  double rhs(std::size_t r) const { return t_.at(r, cols_); }
  double& cost_rhs() { return t_.at(rows_, cols_); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::vector<std::size_t>& basis() { return basis_; }
  const std::vector<std::size_t>& basis() const { return basis_; }

  /// Gauss-Jordan pivot on (row, col), cost row included.
  void pivot(std::size_t row, std::size_t col) {
    const double pivot_value = t_.at(row, col);
    for (std::size_t c = 0; c <= cols_; ++c) {
      t_.at(row, c) /= pivot_value;
    }
    for (std::size_t r = 0; r <= rows_; ++r) {
      if (r == row) continue;
      const double factor = t_.at(r, col);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) {
        t_.at(r, c) -= factor * t_.at(row, c);
      }
    }
    basis_[row] = col;
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  Matrix t_;
  std::vector<std::size_t> basis_;
};

/// One simplex phase. Pricing: Dantzig (most negative reduced cost) for
/// speed, falling back to Bland's rule after a stretch of degenerate
/// pivots so cycling cannot occur (Bland guarantees termination).
LpStatus run_phase(Tableau& tableau, const std::vector<bool>& allowed,
                   const SimplexOptions& options, std::size_t* iterations) {
  constexpr std::size_t kStallThreshold = 64;
  std::size_t degenerate_streak = 0;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const bool use_bland = degenerate_streak >= kStallThreshold;

    // Entering column.
    std::size_t entering = tableau.cols();
    double most_negative = -options.tolerance;
    for (std::size_t c = 0; c < tableau.cols(); ++c) {
      if (!allowed[c]) continue;
      const double cost = tableau.cost(c);
      if (cost < most_negative) {
        entering = c;
        if (use_bland) break;  // Bland: first eligible index
        most_negative = cost;  // Dantzig: steepest
      }
    }
    if (entering == tableau.cols()) return LpStatus::kOptimal;

    // Leaving row: minimum ratio; ties by smallest basis index.
    std::size_t leaving = tableau.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < tableau.rows(); ++r) {
      const double a = tableau.at(r, entering);
      if (a <= options.tolerance) continue;
      const double ratio = tableau.rhs(r) / a;
      if (ratio < best_ratio - options.tolerance ||
          (std::abs(ratio - best_ratio) <= options.tolerance &&
           leaving < tableau.rows() &&
           tableau.basis()[r] < tableau.basis()[leaving])) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == tableau.rows()) return LpStatus::kUnbounded;

    degenerate_streak =
        best_ratio <= options.tolerance ? degenerate_streak + 1 : 0;
    ++*iterations;
    tableau.pivot(leaving, entering);
  }
  return LpStatus::kIterationLimit;
}

}  // namespace

LpSolution solve_dense(const LpProblem& problem,
                       const SimplexOptions& options) {
  problem.validate();
  SolveStats stats;
  std::size_t drive_out_pivots = 0;
  const auto finish = [&](LpSolution solution) {
    stats.pivots = stats.phase1_iterations + stats.phase2_iterations +
                   drive_out_pivots;
    solution.stats = stats;
    return solution;
  };
  const std::size_t n = problem.objective.size();
  const std::size_t m_eq = problem.eq_lhs.rows();
  const std::size_t m_ub = problem.ub_lhs.rows();
  const std::size_t m = m_eq + m_ub;

  // Column layout: [x: 0..n) [slack: n..n+m_ub) [artificial: ...].
  // Every row gets rhs >= 0 by negation; rows without a natural +1 basis
  // column (equalities and flipped inequalities) get an artificial.
  std::vector<int> art_col_of_row(m, -1);
  std::size_t art_count = 0;
  std::vector<bool> row_flipped(m, false);

  for (std::size_t r = 0; r < m_eq; ++r) {
    if (problem.eq_rhs[r] < 0.0) row_flipped[r] = true;
    art_col_of_row[r] = static_cast<int>(art_count++);
  }
  for (std::size_t r = 0; r < m_ub; ++r) {
    const std::size_t row = m_eq + r;
    if (problem.ub_rhs[r] < 0.0) {
      row_flipped[row] = true;
      art_col_of_row[row] = static_cast<int>(art_count++);
    }
  }

  const std::size_t slack_base = n;
  const std::size_t art_base = n + m_ub;
  const std::size_t total_cols = n + m_ub + art_count;

  Tableau tableau(m, total_cols);

  for (std::size_t r = 0; r < m_eq; ++r) {
    const double sign = row_flipped[r] ? -1.0 : 1.0;
    for (std::size_t c = 0; c < n; ++c) {
      tableau.at(r, c) = sign * problem.eq_lhs.at(r, c);
    }
    tableau.rhs(r) = sign * problem.eq_rhs[r];
  }
  for (std::size_t r = 0; r < m_ub; ++r) {
    const std::size_t row = m_eq + r;
    const double sign = row_flipped[row] ? -1.0 : 1.0;
    for (std::size_t c = 0; c < n; ++c) {
      tableau.at(row, c) = sign * problem.ub_lhs.at(r, c);
    }
    tableau.at(row, slack_base + r) = sign;  // slack (or surplus if flipped)
    tableau.rhs(row) =
        sign * (problem.ub_rhs[r] +
                options.degeneracy_perturbation * static_cast<double>(r + 1));
  }

  // Initial basis: artificials where assigned, otherwise the row's slack.
  for (std::size_t r = 0; r < m; ++r) {
    if (art_col_of_row[r] >= 0) {
      const std::size_t col =
          art_base + static_cast<std::size_t>(art_col_of_row[r]);
      tableau.at(r, col) = 1.0;
      tableau.basis()[r] = col;
    } else {
      tableau.basis()[r] = slack_base + (r - m_eq);
    }
  }

  // ---------------- phase 1: minimize the sum of artificials ------------
  if (art_count > 0) {
    // Phase-1 objective: c = 1 on artificial columns, 0 elsewhere. The
    // reduced-cost row is c - sum of the artificial-basic rows, which
    // leaves exactly 0 on the (basic) artificial columns as required.
    for (std::size_t c = art_base; c < total_cols; ++c) {
      tableau.cost(c) = 1.0;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (art_col_of_row[r] < 0) continue;
      for (std::size_t c = 0; c <= total_cols; ++c) {
        tableau.at(m, c) -= tableau.at(r, c);
      }
    }
    std::vector<bool> allowed(total_cols, true);
    const LpStatus phase1 =
        run_phase(tableau, allowed, options, &stats.phase1_iterations);
    if (phase1 != LpStatus::kOptimal) {
      return finish({phase1 == LpStatus::kUnbounded ? LpStatus::kInfeasible
                                                    : phase1,
                     {},
                     0.0,
                     {}});
    }
    if (-tableau.cost_rhs() > 1e-6) {
      return finish({LpStatus::kInfeasible, {}, 0.0, {}});
    }
    // Drive surviving artificial basics out where possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (tableau.basis()[r] < art_base) continue;
      for (std::size_t c = 0; c < art_base; ++c) {
        if (std::abs(tableau.at(r, c)) > options.tolerance) {
          tableau.pivot(r, c);
          ++drive_out_pivots;
          break;
        }
      }
    }
  }

  // ---------------- phase 2: the real objective -------------------------
  // Reset the cost row to c, then eliminate the basic columns.
  for (std::size_t c = 0; c <= total_cols; ++c) tableau.cost(c) = 0.0;
  for (std::size_t c = 0; c < n; ++c) tableau.cost(c) = problem.objective[c];
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t basic = tableau.basis()[r];
    const double c_b = basic < n ? problem.objective[basic] : 0.0;
    if (c_b == 0.0) continue;
    for (std::size_t c = 0; c <= total_cols; ++c) {
      tableau.cost(c) -= c_b * tableau.at(r, c);
    }
  }

  std::vector<bool> allowed(total_cols, true);
  for (std::size_t c = art_base; c < total_cols; ++c) allowed[c] = false;
  const LpStatus phase2 =
      run_phase(tableau, allowed, options, &stats.phase2_iterations);
  if (phase2 != LpStatus::kOptimal) return finish({phase2, {}, 0.0, {}});

  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (tableau.basis()[r] < n) {
      solution.x[tableau.basis()[r]] = tableau.rhs(r);
    }
  }
  solution.objective = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    solution.objective += problem.objective[c] * solution.x[c];
  }
  return finish(std::move(solution));
}

opt::CsrMatrix csr_from_dense(const Matrix& dense, double zero_tolerance) {
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

Matrix dense_from_csr(const opt::CsrMatrix& csr) {
  Matrix dense(csr.rows(), csr.cols());
  for (std::size_t r = 0; r < csr.rows(); ++r) {
    for (std::size_t nz = csr.row_begin(r); nz < csr.row_end(r); ++nz) {
      dense.at(r, csr.col_index(nz)) = csr.value(nz);
    }
  }
  return dense;
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
