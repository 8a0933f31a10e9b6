// Revised two-phase simplex over sparse (CSR) constraints: the library's
// one LP solver (shared types in opt/simplex.hpp).
//
// A dense tableau solver carries the full m x n tableau through every
// pivot: O(m*n) memory and O(m*n) work per iteration, which kept the
// optimal geo-IND mechanism stuck at tiny grids. The revised method
// keeps only the m x m basis inverse and reconstructs tableau columns on
// demand from the sparse constraint matrix, so with the geo-IND LP's
// 2-nonzero ratio rows an iteration costs O(m^2) for the inverse update
// plus O(nnz) for pricing -- orders of magnitude less than the dense
// sweep once n >> m nonzero density.
//
// RevisedSimplex mirrors the semantics of the test suite's dense tableau
// reference, oracles::solve_dense (statuses, rhs normalization,
// degeneracy perturbation, Dantzig pricing with a Bland anti-cycling
// fallback), which the tests check it against. It is a resident solver
// that keeps the factorized basis between calls, so
// resolve(new_objective) warm-starts phase 2 from the previous optimal
// basis. The optimal mechanism's exact build is one cold solve(); the
// approximate build leans on the warm restart: decomposition windows of
// the same shape share constraints and differ only in the prior-weighted
// objective, so every window after the first costs a handful of pivots
// instead of a cold solve.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/simplex.hpp"
#include "opt/sparse.hpp"

namespace privlocad::opt {

class RevisedSimplex {
 public:
  /// Copies the problem into internal column-major sparse form. Throws
  /// util::InvalidArgument on dimensional inconsistency (validate()).
  explicit RevisedSimplex(const SparseLpProblem& problem,
                          SimplexOptions options = {});

  /// Cold two-phase solve from the all-slack/artificial basis.
  LpSolution solve();

  /// Re-solves after replacing the objective, keeping the constraints.
  /// Requires a prior solve() whose phase 1 succeeded (any status except
  /// kInfeasible); the retained basis is still feasible for the unchanged
  /// constraints, so only phase 2 runs. `objective` must have one entry
  /// per structural variable.
  LpSolution resolve(const std::vector<double>& objective);

  /// Cumulative iteration counts across every solve()/resolve() call.
  const SolveStats& stats() const { return stats_; }

  std::size_t rows() const { return m_; }
  std::size_t structural_columns() const { return n_; }

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
  LpSolution extract(const std::vector<double>& objective) const;

  SimplexOptions options_;
  std::size_t n_ = 0;      // structural variables
  std::size_t m_eq_ = 0;
  std::size_t m_ub_ = 0;
  std::size_t m_ = 0;      // total constraint rows
  std::size_t art_base_ = 0;
  std::size_t total_cols_ = 0;
  std::vector<double> objective_;        // current phase-2 objective

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

  bool phase1_done_ = false;
  std::size_t drive_out_pivots_ = 0;
  SolveStats stats_;
};

}  // namespace privlocad::opt
