#include "lppm/optimal_mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "opt/simplex.hpp"
#include "util/strings.hpp"
#include "util/validation.hpp"

namespace privlocad::lppm {
namespace {

/// Octile spanner dilation of the 8-neighbor grid: the worst-case ratio of
/// the shortest king-move path length to the Euclidean distance.
const double kOctileDilation = 1.0 / std::cos(std::numbers::pi / 8.0);

/// Centers of a side x side grid centered on the origin, row-major.
std::vector<geo::Point> grid_centers(std::size_t side, double spacing) {
  std::vector<geo::Point> centers;
  centers.reserve(side * side);
  const double offset = (static_cast<double>(side) - 1.0) / 2.0 * spacing;
  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      centers.push_back({static_cast<double>(col) * spacing - offset,
                         static_cast<double>(row) * spacing - offset});
    }
  }
  return centers;
}

/// Normalizes `prior` in place to a distribution over k cells (empty means
/// uniform).
void normalize_prior(std::vector<double>& prior, std::size_t k) {
  if (prior.empty()) {
    prior.assign(k, 1.0 / static_cast<double>(k));
  }
  util::require(prior.size() == k, "prior size must equal the cell count");
  double prior_sum = 0.0;
  for (const double p : prior) {
    util::require(p >= 0.0, "prior must be non-negative");
    prior_sum += p;
  }
  util::require(prior_sum > 0.0, "prior must have positive mass");
  for (double& p : prior) p /= prior_sum;
}

/// Clamps an LP solution row to a probability distribution (numeric
/// cleanup: negative epsilons from the solver become zeros, the row is
/// renormalized to sum exactly 1).
void clean_row(std::vector<double>& row) {
  double row_sum = 0.0;
  for (double& p : row) {
    p = std::max(0.0, p);
    row_sum += p;
  }
  for (double& p : row) p /= row_sum;
}

}  // namespace

opt::SparseLpProblem build_geo_ind_lp_sparse(
    const std::vector<geo::Point>& centers, const std::vector<double>& prior,
    const std::vector<std::pair<std::size_t, std::size_t>>& directed_edges,
    double edge_epsilon) {
  const std::size_t k = centers.size();
  const std::size_t vars = k * k;
  opt::SparseLpProblem problem;
  problem.objective.assign(vars, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      problem.objective[i * k + j] =
          prior[i] * geo::distance(centers[i], centers[j]);
    }
  }

  problem.eq_lhs = opt::CsrMatrix(vars);
  problem.eq_rhs.assign(k, 1.0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      problem.eq_lhs.append(i * k + j, 1.0);
    }
    problem.eq_lhs.finish_row();
  }

  // Two nonzeros per ratio row; CSR wants them in column order.
  problem.ub_lhs = opt::CsrMatrix(vars);
  problem.ub_rhs.assign(directed_edges.size() * k, 0.0);
  for (const auto& [i, i_prime] : directed_edges) {
    const double bound =
        std::exp(edge_epsilon * geo::distance(centers[i], centers[i_prime]));
    for (std::size_t j = 0; j < k; ++j) {
      if (i < i_prime) {
        problem.ub_lhs.append(i * k + j, 1.0);
        problem.ub_lhs.append(i_prime * k + j, -bound);
      } else {
        problem.ub_lhs.append(i_prime * k + j, -bound);
        problem.ub_lhs.append(i * k + j, 1.0);
      }
      problem.ub_lhs.finish_row();
    }
  }
  return problem;
}

OptimalGeoIndMechanism::OptimalGeoIndMechanism(OptimalMechanismConfig config)
    : config_(std::move(config)) {
  util::require(config_.per_side >= 2, "grid needs at least 2x2 cells");
  util::require_positive(config_.cell_spacing_m, "cell spacing");
  util::require_positive(config_.epsilon, "epsilon");

  const std::size_t side = config_.per_side;
  const std::size_t k = side * side;
  normalize_prior(config_.prior, k);
  centers_ = grid_centers(side, config_.cell_spacing_m);

  // geo-IND constraints on directed 8-neighbor edges, budget deflated by
  // the spanner dilation so chaining yields the full-epsilon guarantee.
  const double edge_epsilon = config_.epsilon / kOctileDilation;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      const std::size_t i = row * side + col;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) continue;
          const int nr = static_cast<int>(row) + dr;
          const int nc = static_cast<int>(col) + dc;
          if (nr < 0 || nc < 0 || nr >= static_cast<int>(side) ||
              nc >= static_cast<int>(side)) {
            continue;
          }
          edges.emplace_back(i, static_cast<std::size_t>(nr) * side +
                                    static_cast<std::size_t>(nc));
        }
      }
    }
  }

  const opt::SparseLpProblem problem =
      build_geo_ind_lp_sparse(centers_, config_.prior, edges, edge_epsilon);

  // The geo-IND rows are all rhs-0, so the LP is extremely degenerate;
  // a graded perturbation keeps the simplex moving (see SimplexOptions).
  // It lets ratio row r slack by up to 1e-8 * (r + 1), and nothing below
  // takes that back: the row cleanup clamps negatives and renormalizes,
  // and the octile deflation covers chaining along paths, not slack. The
  // channel reads up to 1.0e-4 over the all-pairs bound at 4x4,
  // eps = ln 2/200 (ROADMAP item 3).
  opt::SimplexOptions lp_options;
  lp_options.degeneracy_perturbation = 1e-8;
  lp_options.max_iterations = 200000;
  const opt::LpSolution solution = opt::solve(problem, lp_options);
  if (solution.status != opt::LpStatus::kOptimal) {
    throw std::runtime_error(
        "optimal mechanism LP did not reach optimality");
  }

  channel_.assign(k, std::vector<double>(k, 0.0));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      channel_[i][j] = solution.x[i * k + j];
    }
    clean_row(channel_[i]);
  }
  quality_loss_ = solution.objective;
}

std::size_t OptimalGeoIndMechanism::nearest_cell(geo::Point p) const {
  std::size_t best = 0;
  double best_d = geo::distance_squared(p, centers_[0]);
  for (std::size_t i = 1; i < centers_.size(); ++i) {
    const double d = geo::distance_squared(p, centers_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<geo::Point> OptimalGeoIndMechanism::obfuscate(
    rng::Engine& engine, geo::Point real_location) const {
  const std::vector<double>& row = channel_[nearest_cell(real_location)];
  double u = engine.uniform();
  std::size_t j = row.size() - 1;
  for (std::size_t c = 0; c < row.size(); ++c) {
    u -= row[c];
    if (u <= 0.0) {
      j = c;
      break;
    }
  }
  return {centers_[j]};
}

std::string OptimalGeoIndMechanism::name() const {
  return "optimal-geo-ind(k=" + std::to_string(centers_.size()) +
         ",eps=" + util::format_double(config_.epsilon, 5) + "/m)";
}

double OptimalGeoIndMechanism::tail_radius(double alpha) const {
  util::require_unit_open(alpha, "tail probability alpha");
  // From the central cell, find the smallest radius covering 1 - alpha of
  // the output mass.
  const std::size_t center = nearest_cell({0.0, 0.0});
  const std::vector<double>& row = channel_[center];
  std::vector<std::pair<double, double>> by_distance;  // (distance, prob)
  by_distance.reserve(row.size());
  for (std::size_t j = 0; j < row.size(); ++j) {
    by_distance.emplace_back(
        geo::distance(centers_[center], centers_[j]), row[j]);
  }
  std::sort(by_distance.begin(), by_distance.end());
  double mass = 0.0;
  for (const auto& [d, p] : by_distance) {
    mass += p;
    if (mass >= 1.0 - alpha) return d;
  }
  return by_distance.back().first;
}

}  // namespace privlocad::lppm
