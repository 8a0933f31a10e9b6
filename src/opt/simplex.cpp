#include "opt/simplex.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "util/timer.hpp"
#include "util/validation.hpp"

namespace privlocad::opt {

namespace {

/// Dantzig pricing until this many consecutive degenerate pivots, then
/// Bland's rule.
constexpr std::size_t kStallThreshold = 64;

/// Publishes one solve's iteration counts and wall time as opt.* metrics
/// (the LP observability contract in docs/API.md).
void record_solve_metrics(const SolveStats& stats, double seconds) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("opt.solves").add(1);
  registry.counter("opt.pivots").add(stats.pivots);
  registry.counter("opt.phase1_iterations").add(stats.phase1_iterations);
  registry.counter("opt.phase2_iterations").add(stats.phase2_iterations);
  registry.histogram("opt.solve_us").record(seconds * 1e6);
}

void validate_block(const Matrix& lhs, const std::vector<double>& rhs,
                    std::size_t variables, const char* name) {
  util::require(lhs.rows() == rhs.size(),
                std::string("A_") + name + " has " +
                    std::to_string(lhs.rows()) + " rows but b_" + name +
                    " has " + std::to_string(rhs.size()) + " entries");
  util::require(lhs.rows() == 0 || lhs.cols() == variables,
                std::string("A_") + name + " has " +
                    std::to_string(lhs.cols()) + " columns but the LP has " +
                    std::to_string(variables) + " variables");
  // Messages are built only on failure: the 4x4 geo-IND LP has ~350k
  // coefficients.
  for (std::size_t r = 0; r < lhs.rows(); ++r) {
    for (std::size_t c = 0; c < lhs.cols(); ++c) {
      if (!std::isfinite(lhs.at(r, c))) {
        throw util::InvalidArgument(std::string("A_") + name + " row " +
                                    std::to_string(r) +
                                    " has a non-finite coefficient");
      }
    }
    if (!std::isfinite(rhs[r])) {
      throw util::InvalidArgument(std::string("b_") + name + " entry " +
                                  std::to_string(r) + " is non-finite");
    }
  }
}

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

void LpProblem::validate() const {
  util::require(!objective.empty(), "LP needs at least one variable");
  validate_block(eq_lhs, eq_rhs, objective.size(), "eq");
  validate_block(ub_lhs, ub_rhs, objective.size(), "ub");
}

LpSolution solve(const LpProblem& problem, const SimplexOptions& options) {
  problem.validate();
  const util::Timer timer;
  SolveStats stats;
  std::size_t drive_out_pivots = 0;
  const auto finish = [&](LpSolution solution) {
    stats.pivots = stats.phase1_iterations + stats.phase2_iterations +
                   drive_out_pivots;
    solution.stats = stats;
    record_solve_metrics(stats, timer.elapsed_seconds());
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

}  // namespace privlocad::opt
