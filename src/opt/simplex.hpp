// The library's one LP solver: a revised two-phase simplex over sparse
// (CSR) constraints.
//
// It handles   minimize    c^T x
//              subject to  A_eq  x  = b_eq
//                          A_ub  x <= b_ub
//                          x >= 0
// and was built for the optimal geo-IND mechanism (Bordenabe et al., CCS
// 2014): the mechanism is the solution of an LP whose variables are the
// entries of a stochastic matrix, with per-row simplex constraints
// (equalities) and geo-IND density-ratio constraints (inequalities).
//
// A dense tableau carries the full m x n tableau through every pivot. The
// revised method keeps only the m x m basis inverse and reconstructs
// tableau columns on demand from the sparse constraint matrix, so with
// the geo-IND LP's 2-nonzero ratio rows an iteration costs O(m^2) for
// the inverse update plus O(nnz) for pricing. solve() mirrors the
// semantics of the test suite's dense tableau reference,
// oracles::solve_dense (statuses, rhs normalization, degeneracy
// perturbation, Dantzig pricing with a Bland anti-cycling fallback),
// which the tests check it against.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/sparse.hpp"

namespace privlocad::opt {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Iteration accounting for one simplex solve; also published to the
/// global metrics registry as `opt.*` counters on every solve.
struct SolveStats {
  std::size_t phase1_iterations = 0;
  std::size_t phase2_iterations = 0;
  std::size_t pivots = 0;  ///< all basis changes, drive-out pivots included
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;      ///< primal solution (valid when optimal)
  double objective = 0.0;     ///< c^T x (valid when optimal)
  SolveStats stats;           ///< iteration counts of this solve
};

struct SimplexOptions {
  std::size_t max_iterations = 50000;
  double tolerance = 1e-9;

  /// Anti-degeneracy rhs perturbation: inequality row r gets
  /// `perturbation * (r + 1)` added to its rhs. Massively degenerate
  /// problems (e.g. the geo-IND LP, whose ratio constraints all have
  /// rhs 0) stall the simplex at ties; a graded perturbation makes every
  /// vertex unique so Dantzig pricing runs freely.
  ///
  /// Error bound: by LP duality the optimal objective is b^T y* at the
  /// optimal duals y*, so shifting inequality rhs r by perturbation*(r+1)
  /// moves the optimum by at most
  ///     sum_r |y*_r| * perturbation * (r + 1)
  ///       <= perturbation * rows * sum_r |y*_r|,
  /// i.e. O(perturbation * rows) for bounded duals (the geo-IND duals are
  /// bounded by the prior-weighted cell distances). The property test
  /// SimplexTest.PerturbationObjectiveErrorIsLinearlyBounded pins this on
  /// known LPs for the solver and its dense reference. The solution is
  /// feasible only for the perturbed rhs: a ratio row may be violated by
  /// up to perturbation * (r + 1), and nothing downstream removes that.
  /// The optimal mechanism's channel reads up to 1.0e-4 over its
  /// all-pairs geo-IND bound at 4x4, eps = ln 2/200 (ROADMAP item 3).
  /// Zero disables.
  double degeneracy_perturbation = 0.0;
};

/// Cold two-phase solve from the all-slack/artificial basis. Throws
/// util::InvalidArgument on dimensional inconsistency
/// (SparseLpProblem::validate()).
LpSolution solve(const SparseLpProblem& problem,
                 const SimplexOptions& options = {});

}  // namespace privlocad::opt
