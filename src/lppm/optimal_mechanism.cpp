#include "lppm/optimal_mechanism.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
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
/// uniform); shared by the exact and approximate builds.
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

// ------------------- decomposition plumbing ------------------------------

/// One decomposition window: the clipped cell-coordinate rectangle the LP
/// covers, and the core rectangle whose cells take their channel row from
/// this window.
struct Window {
  std::size_t row0, row1, col0, col1;              // window extent
  std::size_t core_row0, core_row1, core_col0, core_col1;  // owned cells
  std::size_t height() const { return row1 - row0; }
  std::size_t width() const { return col1 - col0; }
};

/// Overlapping-window cover of a side x side grid. Core tiles of
/// `step = window_side - 2 * overlap` cells partition the grid (ownership);
/// each window extends its core by `overlap` cells per side, clipped.
std::vector<Window> make_windows(std::size_t side, std::size_t window_side,
                                 std::size_t overlap) {
  std::vector<Window> windows;
  if (side <= window_side) {
    windows.push_back({0, side, 0, side, 0, side, 0, side});
    return windows;
  }
  const std::size_t step = window_side - 2 * overlap;
  const std::size_t tiles = (side + step - 1) / step;
  for (std::size_t tr = 0; tr < tiles; ++tr) {
    const std::size_t cr0 = tr * step;
    const std::size_t cr1 = std::min(cr0 + step, side);
    const std::size_t wr0 = cr0 >= overlap ? cr0 - overlap : 0;
    const std::size_t wr1 = std::min(cr1 + overlap, side);
    for (std::size_t tc = 0; tc < tiles; ++tc) {
      const std::size_t cc0 = tc * step;
      const std::size_t cc1 = std::min(cc0 + step, side);
      const std::size_t wc0 = cc0 >= overlap ? cc0 - overlap : 0;
      const std::size_t wc1 = std::min(cc1 + overlap, side);
      windows.push_back({wr0, wr1, wc0, wc1, cr0, cr1, cc0, cc1});
    }
  }
  return windows;
}

/// Per-shape resident state: identical window shapes share one spanner,
/// one constraint matrix, and one factorized solver (see header comment).
struct ShapeEntry {
  std::optional<Spanner> spanner;
  std::vector<geo::Point> local_centers;
  std::vector<std::pair<std::size_t, std::size_t>> directed_edges;
  opt::SparseLpProblem problem;
  std::optional<opt::RevisedSimplex> solver;
  std::vector<double> last_objective;
  std::vector<std::vector<double>> last_channel;
};

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
  // The induced slack per constraint is <= 1e-8 * rows ~ 1e-5, absorbed by
  // the row renormalization below and by the spanner's dilation margin.
  opt::SimplexOptions lp_options;
  lp_options.degeneracy_perturbation = 1e-8;
  lp_options.max_iterations = 200000;
  const opt::LpSolution solution =
      opt::RevisedSimplex(problem, lp_options).solve();
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

OptimalGeoIndMechanism OptimalGeoIndMechanism::build_approximate(
    const ApproximateOptimalConfig& config, ApproximateBuildReport* report) {
  util::require(config.per_side >= 2, "grid needs at least 2x2 cells");
  util::require_positive(config.cell_spacing_m, "cell spacing");
  util::require_positive(config.epsilon, "epsilon");
  util::require(config.spanner_dilation > 1.0,
                "spanner dilation must exceed 1");
  util::require(config.window_side >= 2, "window side must be at least 2");
  util::require(2 * config.window_overlap < config.window_side,
                "window overlap must be less than half the window side");
  util::require(config.boundary_smoothing >= 0.0 &&
                    config.boundary_smoothing < 1.0,
                "boundary smoothing must lie in [0, 1)");

  util::Timer construct_timer;
  const std::size_t side = config.per_side;
  const std::size_t k = side * side;
  std::vector<double> prior = config.prior;
  normalize_prior(prior, k);

  OptimalGeoIndMechanism mechanism;
  mechanism.approximate_ = true;
  mechanism.config_ = {config.per_side, config.cell_spacing_m, config.epsilon,
                       prior};
  mechanism.centers_ = grid_centers(side, config.cell_spacing_m);
  mechanism.channel_.assign(k, std::vector<double>(k, 0.0));

  ApproximateBuildReport local_report;
  ApproximateBuildReport& rep = report != nullptr ? *report : local_report;
  rep = ApproximateBuildReport{};
  rep.cells = k;
  rep.intra_window_epsilon = config.epsilon;

  const std::vector<Window> windows =
      make_windows(side, config.window_side, config.window_overlap);
  rep.windows = windows.size();

  // Same-shape windows share constraints: cell spacing is uniform, so a
  // window's LP depends only on its (height, width). The resident solver
  // then turns every later same-shape window into a warm phase-2 restart
  // (or a pure reuse when the local prior matches too).
  std::map<std::pair<std::size_t, std::size_t>, ShapeEntry> shapes;
  double solve_seconds = 0.0;

  for (const Window& window : windows) {
    const std::size_t h = window.height();
    const std::size_t w = window.width();
    const std::size_t kw = h * w;
    ShapeEntry& entry = shapes[{h, w}];
    if (entry.local_centers.empty()) {
      // First window of this shape: build the spanner and constraints.
      entry.local_centers.reserve(kw);
      for (std::size_t r = 0; r < h; ++r) {
        for (std::size_t c = 0; c < w; ++c) {
          entry.local_centers.push_back(
              {static_cast<double>(c) * config.cell_spacing_m,
               static_cast<double>(r) * config.cell_spacing_m});
        }
      }
      entry.spanner = Spanner::build(entry.local_centers,
                                     {.target_dilation =
                                          config.spanner_dilation});
      entry.directed_edges.reserve(2 * entry.spanner->edges().size());
      for (const SpannerEdge& e : entry.spanner->edges()) {
        entry.directed_edges.emplace_back(e.a, e.b);
        entry.directed_edges.emplace_back(e.b, e.a);
      }
      // Deflate by the *certified* dilation (<= target): chaining the
      // edge constraints along spanner paths then yields the full
      // epsilon between every cell pair inside the window.
      const double edge_epsilon = config.epsilon / entry.spanner->dilation();
      entry.problem = build_geo_ind_lp_sparse(
          entry.local_centers, std::vector<double>(kw, 1.0 / kw),
          entry.directed_edges, edge_epsilon);
    }
    rep.dilation = std::max(rep.dilation, entry.spanner->dilation());

    // Restrict the global prior to the window and renormalize; a zero-mass
    // window (prior concentrated elsewhere) falls back to uniform.
    std::vector<double> local_prior(kw, 0.0);
    double mass = 0.0;
    for (std::size_t r = 0; r < h; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        const std::size_t g = (window.row0 + r) * side + (window.col0 + c);
        local_prior[r * w + c] = prior[g];
        mass += prior[g];
      }
    }
    if (mass > 0.0) {
      for (double& p : local_prior) p /= mass;
    } else {
      local_prior.assign(kw, 1.0 / static_cast<double>(kw));
    }

    std::vector<double> objective(kw * kw);
    for (std::size_t i = 0; i < kw; ++i) {
      for (std::size_t j = 0; j < kw; ++j) {
        objective[i * kw + j] =
            local_prior[i] *
            geo::distance(entry.local_centers[i], entry.local_centers[j]);
      }
    }

    if (objective == entry.last_objective) {
      ++rep.window_reuse_hits;  // identical prior: channel carries over
    } else {
      util::Timer solve_timer;
      opt::LpSolution solution;
      if (!entry.solver.has_value()) {
        entry.problem.objective = objective;
        entry.solver.emplace(entry.problem, config.simplex);
        solution = entry.solver->solve();
        ++rep.window_solves_cold;
      } else {
        solution = entry.solver->resolve(objective);
        ++rep.window_solves_warm;
      }
      solve_seconds += solve_timer.elapsed_seconds();
      if (solution.status != opt::LpStatus::kOptimal) {
        throw std::runtime_error(
            "approximate optimal mechanism window LP did not reach "
            "optimality");
      }
      rep.lp_variables += kw * kw;
      rep.lp_constraints +=
          entry.problem.eq_rhs.size() + entry.problem.ub_rhs.size();
      rep.solve_stats.phase1_iterations += solution.stats.phase1_iterations;
      rep.solve_stats.phase2_iterations += solution.stats.phase2_iterations;
      rep.solve_stats.pivots += solution.stats.pivots;

      entry.last_channel.assign(kw, std::vector<double>(kw, 0.0));
      for (std::size_t i = 0; i < kw; ++i) {
        for (std::size_t j = 0; j < kw; ++j) {
          entry.last_channel[i][j] = solution.x[i * kw + j];
        }
        clean_row(entry.last_channel[i]);
      }
      entry.last_objective = std::move(objective);
    }

    // Stitch: cells in the window's core take their channel row from this
    // window's solution (support restricted to the window's cells).
    for (std::size_t r = window.core_row0; r < window.core_row1; ++r) {
      for (std::size_t c = window.core_col0; c < window.core_col1; ++c) {
        const std::size_t g = r * side + c;
        const std::size_t l = (r - window.row0) * w + (c - window.col0);
        std::vector<double>& row = mechanism.channel_[g];
        const std::vector<double>& local_row = entry.last_channel[l];
        for (std::size_t lr = 0; lr < h; ++lr) {
          for (std::size_t lc = 0; lc < w; ++lc) {
            row[(window.row0 + lr) * side + (window.col0 + lc)] =
                local_row[lr * w + lc];
          }
        }
      }
    }
  }

  // Cross-seam smoothing: the LP certifies geo-IND inside each window but
  // rows of adjacent windows can disagree arbitrarily at the seam. Mixing
  // in a uniform floor bounds every density ratio by (1-g+g/k)/(g/k), which
  // the audit below converts into a measured boundary epsilon.
  if (windows.size() > 1 && config.boundary_smoothing > 0.0) {
    const double g = config.boundary_smoothing;
    const double floor = g / static_cast<double>(k);
    for (std::vector<double>& row : mechanism.channel_) {
      for (double& p : row) p = (1.0 - g) * p + floor;
    }
  }

  // Prior-weighted expected quality loss of the final (stitched, smoothed)
  // channel, measured over the *global* distances.
  double quality_loss = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (prior[i] == 0.0) continue;
    double row_loss = 0.0;
    const std::vector<double>& row = mechanism.channel_[i];
    for (std::size_t j = 0; j < k; ++j) {
      if (row[j] > 0.0) {
        row_loss +=
            row[j] * geo::distance(mechanism.centers_[i], mechanism.centers_[j]);
      }
    }
    quality_loss += prior[i] * row_loss;
  }
  mechanism.quality_loss_ = quality_loss;
  mechanism.build_dilation_ = rep.dilation;
  rep.quality_loss = quality_loss;

  // Boundary audit: the effective geo-IND budget between 8-neighbor cells
  // on the final channel (the honest cross-seam guarantee).
  double boundary_epsilon = 0.0;
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
          const std::size_t i2 = static_cast<std::size_t>(nr) * side +
                                 static_cast<std::size_t>(nc);
          double max_ratio = 0.0;
          for (std::size_t j = 0; j < k; ++j) {
            const double num = mechanism.channel_[i][j];
            const double den = mechanism.channel_[i2][j];
            if (den <= 0.0) {
              if (num > 1e-15) {
                max_ratio = std::numeric_limits<double>::infinity();
                break;
              }
              continue;
            }
            max_ratio = std::max(max_ratio, num / den);
          }
          if (max_ratio > 1.0) {
            const double d =
                geo::distance(mechanism.centers_[i], mechanism.centers_[i2]);
            boundary_epsilon =
                std::max(boundary_epsilon, std::log(max_ratio) / d);
          }
        }
      }
    }
  }
  rep.boundary_epsilon = boundary_epsilon;

  rep.solve_seconds = solve_seconds;
  rep.construct_seconds = construct_timer.elapsed_seconds();

  auto& registry = obs::MetricsRegistry::global();
  registry.counter("opt.mechanism_builds").add(1);
  registry.counter("opt.windows_stitched").add(rep.windows);
  registry.counter("opt.window_solves_cold").add(rep.window_solves_cold);
  registry.counter("opt.window_solves_warm").add(rep.window_solves_warm);
  registry.counter("opt.window_reuse_hits").add(rep.window_reuse_hits);
  registry.histogram("opt.construct_us").record(rep.construct_seconds * 1e6);

  return mechanism;
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
  if (approximate_) {
    return "approx-optimal-geo-ind(k=" + std::to_string(centers_.size()) +
           ",eps=" + util::format_double(config_.epsilon, 5) +
           "/m,delta=" + util::format_double(build_dilation_, 3) + ")";
  }
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
