// Shared types of the LP solver (opt/revised_simplex.hpp).
//
// The solver handles   minimize    c^T x
//                      subject to  A_eq  x  = b_eq
//                                  A_ub  x <= b_ub
//                                  x >= 0
// with the two-phase method. It was built for the optimal geo-IND
// mechanism (Bordenabe et al., CCS 2014): the mechanism is the solution of
// an LP whose variables are the entries of a stochastic matrix, with
// per-row simplex constraints (equalities) and geo-IND density-ratio
// constraints (inequalities). The test suite keeps a dense tableau
// solver over the same types as its reference (tests/oracles.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace privlocad::opt {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

/// Iteration accounting for one or more simplex solves; also published
/// to the global metrics registry as `opt.*` counters on every solve.
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
  /// known LPs for the solver and its dense reference. Callers that need
  /// exact feasibility should post-process (the optimal mechanism
  /// renormalizes its rows). Zero disables.
  double degeneracy_perturbation = 0.0;
};

}  // namespace privlocad::opt
