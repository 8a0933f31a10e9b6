#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace privlocad::opt {

namespace {

/// Mirrors the dense reference's anti-cycling policy: Dantzig pricing
/// until this many consecutive degenerate pivots, then Bland's rule.
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

/// The solver state of one cold solve: the problem in column-major
/// sparse form, and the factorized basis the pivots update.
class RevisedSimplex {
 public:
  /// Copies the problem into internal column-major sparse form.
  RevisedSimplex(const SparseLpProblem& problem, SimplexOptions options);

  LpSolution solve();

 private:
  // Column-major view of one constraint column (structural, slack, or
  // artificial) as (row, value) pairs.
  struct ColumnRef {
    const std::uint32_t* rows;
    const double* values;
    std::size_t count;
  };

  ColumnRef column(std::size_t j) const;
  void compute_duals(const std::vector<double>& cost);
  void ftran(std::size_t j, std::vector<double>& w) const;
  void apply_pivot(std::size_t leaving_row, std::size_t entering_col,
                   const std::vector<double>& w);
  LpStatus run_phase(const std::vector<double>& cost,
                     std::size_t entering_limit, std::size_t* iterations);
  void drive_out_artificials();
  LpSolution extract() const;

  SimplexOptions options_;
  std::size_t n_ = 0;      // structural variables
  std::size_t m_eq_ = 0;
  std::size_t m_ub_ = 0;
  std::size_t m_ = 0;      // total constraint rows
  std::size_t art_base_ = 0;
  std::size_t total_cols_ = 0;
  std::vector<double> objective_;        // phase-2 objective

  // Structural columns in CSC form (rhs-sign normalization applied).
  std::vector<std::size_t> col_start_;
  std::vector<std::uint32_t> col_row_;
  std::vector<double> col_value_;

  std::vector<double> slack_sign_;       // per ub row, +-1 after flip
  std::vector<std::uint32_t> slack_row_; // constraint row of each slack
  std::vector<std::uint32_t> art_row_;   // constraint row of each artificial
  std::vector<double> art_value_;        // all 1.0 (column() views)
  std::vector<double> b_;                // normalized rhs (with perturbation)

  // Factorized state: column-major dense basis inverse, current basis,
  // and the basic-variable values.
  std::vector<double> binv_;             // m_ * m_, column-major
  std::vector<std::size_t> basis_;
  std::vector<char> in_basis_;
  std::vector<double> x_basic_;
  std::vector<double> duals_;            // scratch: y = c_B B^-1
  std::vector<double> cost_basic_;       // scratch: c_B
  std::vector<double> scratch_w_;        // scratch: B^-1 A_j

  std::size_t drive_out_pivots_ = 0;
};

RevisedSimplex::RevisedSimplex(const SparseLpProblem& problem,
                               SimplexOptions options)
    : options_(options) {
  problem.validate();
  n_ = problem.objective.size();
  m_eq_ = problem.eq_lhs.rows();
  m_ub_ = problem.ub_lhs.rows();
  m_ = m_eq_ + m_ub_;
  objective_ = problem.objective;

  // rhs normalization mirrors the dense reference: every row gets
  // rhs >= 0 by negation (decided on the raw rhs), inequality rows carry
  // the graded degeneracy perturbation, and rows without a natural +1
  // basis column (equalities and flipped inequalities) get an
  // artificial.
  std::vector<double> row_sign(m_, 1.0);
  b_.assign(m_, 0.0);
  art_row_.clear();
  for (std::size_t r = 0; r < m_eq_; ++r) {
    if (problem.eq_rhs[r] < 0.0) row_sign[r] = -1.0;
    b_[r] = row_sign[r] * problem.eq_rhs[r];
    art_row_.push_back(static_cast<std::uint32_t>(r));
  }
  slack_sign_.assign(m_ub_, 1.0);
  for (std::size_t r = 0; r < m_ub_; ++r) {
    const std::size_t row = m_eq_ + r;
    if (problem.ub_rhs[r] < 0.0) {
      row_sign[row] = -1.0;
      art_row_.push_back(static_cast<std::uint32_t>(row));
    }
    slack_sign_[r] = row_sign[row];
    b_[row] = row_sign[row] *
              (problem.ub_rhs[r] + options_.degeneracy_perturbation *
                                       static_cast<double>(r + 1));
  }

  art_base_ = n_ + m_ub_;
  total_cols_ = art_base_ + art_row_.size();

  // Structural columns as CSC (sign-normalized), assembled with a count
  // pass then a fill pass over both CSR blocks.
  std::vector<std::size_t> count(n_, 0);
  for (std::size_t r = 0; r < m_eq_; ++r) {
    for (std::size_t nz = problem.eq_lhs.row_begin(r);
         nz < problem.eq_lhs.row_end(r); ++nz) {
      ++count[problem.eq_lhs.col_index(nz)];
    }
  }
  for (std::size_t r = 0; r < m_ub_; ++r) {
    for (std::size_t nz = problem.ub_lhs.row_begin(r);
         nz < problem.ub_lhs.row_end(r); ++nz) {
      ++count[problem.ub_lhs.col_index(nz)];
    }
  }
  col_start_.assign(n_ + 1, 0);
  for (std::size_t j = 0; j < n_; ++j) {
    col_start_[j + 1] = col_start_[j] + count[j];
  }
  col_row_.resize(col_start_[n_]);
  col_value_.resize(col_start_[n_]);
  std::vector<std::size_t> cursor(col_start_.begin(), col_start_.end() - 1);
  for (std::size_t r = 0; r < m_eq_; ++r) {
    for (std::size_t nz = problem.eq_lhs.row_begin(r);
         nz < problem.eq_lhs.row_end(r); ++nz) {
      const std::size_t j = problem.eq_lhs.col_index(nz);
      col_row_[cursor[j]] = static_cast<std::uint32_t>(r);
      col_value_[cursor[j]] = row_sign[r] * problem.eq_lhs.value(nz);
      ++cursor[j];
    }
  }
  for (std::size_t r = 0; r < m_ub_; ++r) {
    const std::size_t row = m_eq_ + r;
    for (std::size_t nz = problem.ub_lhs.row_begin(r);
         nz < problem.ub_lhs.row_end(r); ++nz) {
      const std::size_t j = problem.ub_lhs.col_index(nz);
      col_row_[cursor[j]] = static_cast<std::uint32_t>(row);
      col_value_[cursor[j]] = row_sign[row] * problem.ub_lhs.value(nz);
      ++cursor[j];
    }
  }

  // Slack and artificial columns are singletons; keep them in flat arrays
  // so column() can hand out uniform (rows, values, count) views.
  slack_row_.resize(m_ub_);
  for (std::size_t r = 0; r < m_ub_; ++r) {
    slack_row_[r] = static_cast<std::uint32_t>(m_eq_ + r);
  }
  art_value_.assign(art_row_.size(), 1.0);

  duals_.assign(m_, 0.0);
  scratch_w_.assign(m_, 0.0);
  cost_basic_.assign(m_, 0.0);
}

RevisedSimplex::ColumnRef RevisedSimplex::column(std::size_t j) const {
  if (j < n_) {
    const std::size_t begin = col_start_[j];
    return {col_row_.data() + begin, col_value_.data() + begin,
            col_start_[j + 1] - begin};
  }
  if (j < art_base_) {
    const std::size_t s = j - n_;
    return {slack_row_.data() + s, slack_sign_.data() + s, 1};
  }
  const std::size_t a = j - art_base_;
  return {art_row_.data() + a, art_value_.data() + a, 1};
}

void RevisedSimplex::compute_duals(const std::vector<double>& cost) {
  bool any = false;
  for (std::size_t i = 0; i < m_; ++i) {
    cost_basic_[i] = cost[basis_[i]];
    any = any || cost_basic_[i] != 0.0;
  }
  if (!any) {
    std::fill(duals_.begin(), duals_.end(), 0.0);
    return;
  }
  // y^T = c_B^T B^-1: each dual is the dot of c_B with one (contiguous,
  // column-major) column of the inverse.
  for (std::size_t r = 0; r < m_; ++r) {
    const double* col = binv_.data() + r * m_;
    double acc = 0.0;
    for (std::size_t i = 0; i < m_; ++i) acc += cost_basic_[i] * col[i];
    duals_[r] = acc;
  }
}

void RevisedSimplex::ftran(std::size_t j, std::vector<double>& w) const {
  std::fill(w.begin(), w.end(), 0.0);
  const ColumnRef a = column(j);
  // B^-1 A_j = sum over A_j's nonzero rows of the matching inverse
  // column, scaled -- O(m * nnz) instead of a dense m x n sweep.
  for (std::size_t nz = 0; nz < a.count; ++nz) {
    const double v = a.values[nz];
    if (v == 0.0) continue;
    const double* col = binv_.data() + a.rows[nz] * m_;
    for (std::size_t i = 0; i < m_; ++i) w[i] += v * col[i];
  }
}

void RevisedSimplex::apply_pivot(std::size_t leaving_row,
                                 std::size_t entering_col,
                                 const std::vector<double>& w) {
  const double wp = w[leaving_row];
  const double* wd = w.data();
  for (std::size_t c = 0; c < m_; ++c) {
    double* col = binv_.data() + c * m_;
    const double alpha = col[leaving_row] / wp;
    if (alpha == 0.0) continue;
    for (std::size_t i = 0; i < m_; ++i) col[i] -= wd[i] * alpha;
    col[leaving_row] = alpha;
  }
  const double t = x_basic_[leaving_row] / wp;
  if (t != 0.0) {
    for (std::size_t i = 0; i < m_; ++i) x_basic_[i] -= wd[i] * t;
  }
  x_basic_[leaving_row] = t;

  in_basis_[basis_[leaving_row]] = 0;
  basis_[leaving_row] = entering_col;
  in_basis_[entering_col] = 1;
}

LpStatus RevisedSimplex::run_phase(const std::vector<double>& cost,
                                   std::size_t entering_limit,
                                   std::size_t* iterations) {
  std::size_t degenerate_streak = 0;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    compute_duals(cost);

    // Entering column: reduced cost c_j - y A_j from the sparse column.
    const bool use_bland = degenerate_streak >= kStallThreshold;
    std::size_t entering = total_cols_;
    double most_negative = -options_.tolerance;
    for (std::size_t j = 0; j < entering_limit; ++j) {
      if (in_basis_[j]) continue;
      const ColumnRef a = column(j);
      double reduced = cost[j];
      for (std::size_t nz = 0; nz < a.count; ++nz) {
        reduced -= duals_[a.rows[nz]] * a.values[nz];
      }
      if (reduced < most_negative) {
        entering = j;
        if (use_bland) break;  // Bland: first eligible index
        most_negative = reduced;  // Dantzig: steepest
      }
    }
    if (entering == total_cols_) return LpStatus::kOptimal;

    ftran(entering, scratch_w_);

    // Leaving row: minimum ratio; ties by smallest basis index (exactly
    // the dense reference's rule, so pivot paths stay comparable).
    std::size_t leaving = m_;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m_; ++r) {
      const double a = scratch_w_[r];
      if (a <= options_.tolerance) continue;
      const double ratio = x_basic_[r] / a;
      if (ratio < best_ratio - options_.tolerance ||
          (std::abs(ratio - best_ratio) <= options_.tolerance &&
           leaving < m_ && basis_[r] < basis_[leaving])) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == m_) return LpStatus::kUnbounded;

    degenerate_streak =
        best_ratio <= options_.tolerance ? degenerate_streak + 1 : 0;
    ++*iterations;
    apply_pivot(leaving, entering, scratch_w_);
  }
  return LpStatus::kIterationLimit;
}

void RevisedSimplex::drive_out_artificials() {
  for (std::size_t r = 0; r < m_; ++r) {
    if (basis_[r] < art_base_) continue;
    for (std::size_t j = 0; j < art_base_; ++j) {
      if (in_basis_[j]) continue;
      // Row r of B^-1 A_j without the full ftran: O(nnz) strided reads.
      const ColumnRef a = column(j);
      double pivot_entry = 0.0;
      for (std::size_t nz = 0; nz < a.count; ++nz) {
        pivot_entry += a.values[nz] * binv_[a.rows[nz] * m_ + r];
      }
      if (std::abs(pivot_entry) <= options_.tolerance) continue;
      ftran(j, scratch_w_);
      if (std::abs(scratch_w_[r]) <= options_.tolerance) continue;
      apply_pivot(r, j, scratch_w_);
      ++drive_out_pivots_;
      break;
    }
  }
}

LpSolution RevisedSimplex::extract() const {
  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.x.assign(n_, 0.0);
  for (std::size_t r = 0; r < m_; ++r) {
    if (basis_[r] < n_) solution.x[basis_[r]] = x_basic_[r];
  }
  solution.objective = 0.0;
  for (std::size_t j = 0; j < n_; ++j) {
    solution.objective += objective_[j] * solution.x[j];
  }
  return solution;
}

LpSolution RevisedSimplex::solve() {
  const util::Timer timer;
  SolveStats call_stats;
  const auto finish = [&](LpSolution solution) {
    call_stats.pivots = call_stats.phase1_iterations +
                        call_stats.phase2_iterations + drive_out_pivots_;
    solution.stats = call_stats;
    record_solve_metrics(call_stats, timer.elapsed_seconds());
    return solution;
  };

  // All-slack/artificial starting basis: B is the identity.
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;
  basis_.assign(m_, 0);
  in_basis_.assign(total_cols_, 0);
  x_basic_ = b_;
  {
    std::size_t next_art = 0;
    for (std::size_t r = 0; r < m_eq_; ++r) {
      basis_[r] = art_base_ + next_art++;
    }
    for (std::size_t r = 0; r < m_ub_; ++r) {
      const std::size_t row = m_eq_ + r;
      basis_[row] =
          slack_sign_[r] < 0.0 ? art_base_ + next_art++ : n_ + r;
    }
    for (std::size_t r = 0; r < m_; ++r) in_basis_[basis_[r]] = 1;
  }

  if (!art_row_.empty()) {
    std::vector<double> phase1_cost(total_cols_, 0.0);
    for (std::size_t j = art_base_; j < total_cols_; ++j) {
      phase1_cost[j] = 1.0;
    }
    const LpStatus phase1 =
        run_phase(phase1_cost, total_cols_, &call_stats.phase1_iterations);
    if (phase1 != LpStatus::kOptimal) {
      return finish({phase1 == LpStatus::kUnbounded ? LpStatus::kInfeasible
                                                    : phase1,
                     {},
                     0.0,
                     {}});
    }
    double artificial_mass = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] >= art_base_) artificial_mass += x_basic_[r];
    }
    if (artificial_mass > 1e-6) {
      return finish({LpStatus::kInfeasible, {}, 0.0, {}});
    }
    drive_out_artificials();
  }

  std::vector<double> phase2_cost(total_cols_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) phase2_cost[j] = objective_[j];
  const LpStatus phase2 =
      run_phase(phase2_cost, art_base_, &call_stats.phase2_iterations);
  if (phase2 != LpStatus::kOptimal) return finish({phase2, {}, 0.0, {}});
  return finish(extract());
}

}  // namespace

LpSolution solve(const SparseLpProblem& problem,
                 const SimplexOptions& options) {
  return RevisedSimplex(problem, options).solve();
}

}  // namespace privlocad::opt
