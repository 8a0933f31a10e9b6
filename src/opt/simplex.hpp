// The library's one LP solver: a dense two-phase tableau simplex.
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
// The full (m + 1) x (n + 1) tableau is pivoted in place, so memory is
// O(m * n): ~18 MB for the 4x4 geo-IND LP (1,360 rows), which is about as
// far as a dense method goes. A larger grid needs a different solver.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

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
  /// a known LP. The solution is feasible only for the perturbed rhs: a
  /// ratio row may be violated by up to perturbation * (r + 1), and
  /// nothing downstream removes that. The optimal mechanism's channel
  /// reads up to 1.0e-4 over its all-pairs geo-IND bound at 4x4,
  /// eps = ln 2/200 (ROADMAP item 3). Zero disables.
  double degeneracy_perturbation = 0.0;
};

/// Row-major dense matrix, sized rows x cols at construction. Index
/// bounds are asserted in debug builds (NDEBUG off); release builds
/// elide the check to keep the pivot inner loop branch-free.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  double& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_ && "Matrix::at index out of range");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_ && "Matrix::at index out of range");
    return data_[r * cols_ + c];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// minimize c^T x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.
struct LpProblem {
  std::vector<double> objective;  ///< c, one entry per variable

  Matrix eq_lhs;                  ///< A_eq (may have 0 rows)
  std::vector<double> eq_rhs;     ///< b_eq

  Matrix ub_lhs;                  ///< A_ub (may have 0 rows)
  std::vector<double> ub_rhs;     ///< b_ub

  /// Validates dimensional consistency and finite A and b entries;
  /// throws util::InvalidArgument with a message naming the offending
  /// block and the mismatched sizes or the non-finite row.
  void validate() const;
};

/// Cold two-phase solve from the all-slack/artificial basis: every row
/// gets rhs >= 0 by negation, inequality rows carry the graded degeneracy
/// perturbation, pricing is Dantzig with a Bland fallback after 64
/// consecutive degenerate pivots, and artificials left basic after
/// phase 1 are driven out where possible. Throws util::InvalidArgument
/// when validate() does.
LpSolution solve(const LpProblem& problem, const SimplexOptions& options = {});

}  // namespace privlocad::opt
