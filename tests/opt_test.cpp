// Tests for the revised simplex (checked against the dense tableau
// reference in tests/oracles), the CSR constraint representation, and the
// LP-based optimal geo-IND mechanism built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "lppm/optimal_mechanism.hpp"
#include "lppm/planar_laplace.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse.hpp"
#include "rng/engine.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad {
namespace {

using opt::CsrMatrix;
using opt::LpStatus;
using opt::SparseLpProblem;
using oracles::cell_center;
using oracles::channel_row;
using oracles::csr_from_dense;
using oracles::dense_from_csr;
using oracles::LpProblem;
using oracles::Matrix;
using oracles::max_constraint_violation;
using oracles::solve_dense;

/// The dense reference LP of a sparse one, entry for entry.
LpProblem to_dense(const SparseLpProblem& sparse) {
  LpProblem dense;
  dense.objective = sparse.objective;
  dense.eq_lhs = dense_from_csr(sparse.eq_lhs);
  dense.eq_rhs = sparse.eq_rhs;
  dense.ub_lhs = dense_from_csr(sparse.ub_lhs);
  dense.ub_rhs = sparse.ub_rhs;
  return dense;
}

// ------------------------------------------------------------------ simplex

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's example)
  // -> min -3x - 5y; optimum x = 2, y = 6, objective -36.
  LpProblem p;
  p.objective = {-3.0, -5.0};
  p.ub_lhs = Matrix(3, 2);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_lhs.at(1, 1) = 2.0;
  p.ub_lhs.at(2, 0) = 3.0;
  p.ub_lhs.at(2, 1) = 2.0;
  p.ub_rhs = {4.0, 12.0, 18.0};

  const auto solution = solve_dense(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
  EXPECT_NEAR(solution.objective, -36.0, 1e-9);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + 2y s.t. x + y = 10, x <= 4 -> x = 4, y = 6, obj 16.
  LpProblem p;
  p.objective = {1.0, 2.0};
  p.eq_lhs = Matrix(1, 2);
  p.eq_lhs.at(0, 0) = 1.0;
  p.eq_lhs.at(0, 1) = 1.0;
  p.eq_rhs = {10.0};
  p.ub_lhs = Matrix(1, 2);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_rhs = {4.0};

  const auto solution = solve_dense(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 4.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
  EXPECT_NEAR(solution.objective, 16.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  // x = 5 and x <= 3 cannot both hold.
  LpProblem p;
  p.objective = {1.0};
  p.eq_lhs = Matrix(1, 1);
  p.eq_lhs.at(0, 0) = 1.0;
  p.eq_rhs = {5.0};
  p.ub_lhs = Matrix(1, 1);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_rhs = {3.0};
  EXPECT_EQ(solve_dense(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x with no upper bound on x.
  LpProblem p;
  p.objective = {-1.0};
  EXPECT_EQ(solve_dense(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsEqualityNormalized) {
  // -x - y = -10 (i.e. x + y = 10), min x + 2y, y <= 7 -> x=3? No upper on
  // x: min picks x as large as possible... objective favors x over y:
  // x = 10, y = 0, obj 10; y-bound irrelevant.
  LpProblem p;
  p.objective = {1.0, 2.0};
  p.eq_lhs = Matrix(1, 2);
  p.eq_lhs.at(0, 0) = -1.0;
  p.eq_lhs.at(0, 1) = -1.0;
  p.eq_rhs = {-10.0};
  p.ub_lhs = Matrix(1, 2);
  p.ub_lhs.at(0, 1) = 1.0;
  p.ub_rhs = {7.0};
  const auto solution = solve_dense(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 10.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (classic
  // degeneracy); Bland's rule must still terminate.
  LpProblem p;
  p.objective = {-1.0, -1.0};
  p.ub_lhs = Matrix(4, 2);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_lhs.at(1, 1) = 1.0;
  p.ub_lhs.at(2, 0) = 1.0;
  p.ub_lhs.at(2, 1) = 1.0;
  p.ub_lhs.at(3, 0) = 2.0;
  p.ub_lhs.at(3, 1) = 2.0;
  p.ub_rhs = {1.0, 1.0, 1.0, 2.0};
  const auto solution = solve_dense(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -1.0, 1e-9);
}

TEST(Simplex, ValidatesDimensions) {
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.eq_lhs = Matrix(1, 3);  // wrong column count
  p.eq_rhs = {1.0};
  EXPECT_THROW(solve_dense(p), util::InvalidArgument);
  LpProblem empty;
  EXPECT_THROW(solve_dense(empty), util::InvalidArgument);
}

TEST(Simplex, DimensionErrorsNameTheMismatch) {
  // The error text carries both sizes so a bad LP is diagnosable from the
  // exception alone.
  LpProblem p;
  p.objective = {1.0, 1.0};
  p.eq_lhs = Matrix(2, 2);
  p.eq_rhs = {1.0};  // 2 rows vs 1 rhs entry
  try {
    solve_dense(p);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("A_eq has 2 rows"), std::string::npos) << what;
    EXPECT_NE(what.find("b_eq has 1 entries"), std::string::npos) << what;
  }

  LpProblem q;
  q.objective = {1.0, 1.0};
  q.ub_lhs = Matrix(1, 3);
  q.ub_rhs = {1.0};  // 3 columns vs 2 variables
  try {
    solve_dense(q);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("A_ub has 3 columns"), std::string::npos) << what;
    EXPECT_NE(what.find("2 variables"), std::string::npos) << what;
  }
}

TEST(Simplex, ReportsIterationLimit) {
  // One iteration cannot reach the Dantzig-example optimum.
  LpProblem p;
  p.objective = {-3.0, -5.0};
  p.ub_lhs = Matrix(3, 2);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_lhs.at(1, 1) = 2.0;
  p.ub_lhs.at(2, 0) = 3.0;
  p.ub_lhs.at(2, 1) = 2.0;
  p.ub_rhs = {4.0, 12.0, 18.0};
  opt::SimplexOptions options;
  options.max_iterations = 1;
  EXPECT_EQ(solve_dense(p, options).status, LpStatus::kIterationLimit);
}

TEST(Simplex, CountsPivotsInSolveStats) {
  LpProblem p;
  p.objective = {-3.0, -5.0};
  p.ub_lhs = Matrix(3, 2);
  p.ub_lhs.at(0, 0) = 1.0;
  p.ub_lhs.at(1, 1) = 2.0;
  p.ub_lhs.at(2, 0) = 3.0;
  p.ub_lhs.at(2, 1) = 2.0;
  p.ub_rhs = {4.0, 12.0, 18.0};
  const auto solution = solve_dense(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  // All-positive rhs: phase 1 is skipped outright, phase 2 must move.
  EXPECT_EQ(solution.stats.phase1_iterations, 0u);
  EXPECT_GE(solution.stats.phase2_iterations, 2u);
  EXPECT_EQ(solution.stats.pivots, solution.stats.phase1_iterations +
                                       solution.stats.phase2_iterations);
}

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST(MatrixDeathTest, OutOfRangeAccessAssertsInDebugBuilds) {
  Matrix m(2, 3);
  EXPECT_DEATH(m.at(2, 0), "out of range");
  EXPECT_DEATH(m.at(0, 3), "out of range");
}
#endif

// ------------------------------------------------------------ sparse (CSR)

TEST(CsrMatrix, BuildsIncrementallyAndRoundTripsFromDense) {
  CsrMatrix m(4);
  m.append(0, 1.0);
  m.append(3, -2.0);
  m.finish_row();
  m.finish_row();  // empty row
  m.append(2, 5.0);
  m.finish_row();
  ASSERT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_EQ(m.row_end(0) - m.row_begin(0), 2u);
  EXPECT_EQ(m.row_end(1) - m.row_begin(1), 0u);
  EXPECT_EQ(m.col_index(m.row_begin(2)), 2u);
  EXPECT_DOUBLE_EQ(m.value(m.row_begin(2)), 5.0);

  Matrix dense(3, 4);
  dense.at(0, 0) = 1.0;
  dense.at(0, 3) = -2.0;
  dense.at(2, 2) = 5.0;
  const CsrMatrix converted = csr_from_dense(dense);
  ASSERT_EQ(converted.rows(), m.rows());
  ASSERT_EQ(converted.nonzeros(), m.nonzeros());
  for (std::size_t nz = 0; nz < m.nonzeros(); ++nz) {
    EXPECT_EQ(converted.col_index(nz), m.col_index(nz));
    EXPECT_DOUBLE_EQ(converted.value(nz), m.value(nz));
  }
}

TEST(CsrMatrix, FromDenseDropsSmallEntriesWithTolerance) {
  Matrix dense(1, 3);
  dense.at(0, 0) = 1.0;
  dense.at(0, 1) = 1e-15;
  const CsrMatrix kept = csr_from_dense(dense);
  const CsrMatrix pruned = csr_from_dense(dense, 1e-12);
  EXPECT_EQ(kept.nonzeros(), 2u);
  EXPECT_EQ(pruned.nonzeros(), 1u);
}

// ------------------------------------------------------- revised simplex

SparseLpProblem sparse_dantzig() {
  // Same LP as Simplex.SolvesTextbookMaximization.
  SparseLpProblem p;
  p.objective = {-3.0, -5.0};
  p.ub_lhs = CsrMatrix(2);
  p.ub_lhs.append(0, 1.0);
  p.ub_lhs.finish_row();
  p.ub_lhs.append(1, 2.0);
  p.ub_lhs.finish_row();
  p.ub_lhs.append(0, 3.0);
  p.ub_lhs.append(1, 2.0);
  p.ub_lhs.finish_row();
  p.ub_rhs = {4.0, 12.0, 18.0};
  return p;
}

TEST(RevisedSimplex, SolvesTextbookMaximization) {
  const auto solution = opt::solve(sparse_dantzig());
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
  EXPECT_NEAR(solution.objective, -36.0, 1e-9);
  EXPECT_GE(solution.stats.pivots, 2u);
}

TEST(RevisedSimplex, HandlesEqualityAndNegativeRhs) {
  // -x - y = -10 (normalized to x + y = 10), min x + 2y, y <= 7.
  SparseLpProblem p;
  p.objective = {1.0, 2.0};
  p.eq_lhs = CsrMatrix(2);
  p.eq_lhs.append(0, -1.0);
  p.eq_lhs.append(1, -1.0);
  p.eq_lhs.finish_row();
  p.eq_rhs = {-10.0};
  p.ub_lhs = CsrMatrix(2);
  p.ub_lhs.append(1, 1.0);
  p.ub_lhs.finish_row();
  p.ub_rhs = {7.0};
  const auto solution = opt::solve(p);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 10.0, 1e-9);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  SparseLpProblem p;
  p.objective = {1.0};
  p.eq_lhs = CsrMatrix(1);
  p.eq_lhs.append(0, 1.0);
  p.eq_lhs.finish_row();
  p.eq_rhs = {5.0};
  p.ub_lhs = CsrMatrix(1);
  p.ub_lhs.append(0, 1.0);
  p.ub_lhs.finish_row();
  p.ub_rhs = {3.0};
  EXPECT_EQ(opt::solve(p).status, LpStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  // min -x with only a lower-bounding style constraint (x >= 1 written as
  // -x <= -1): x can grow without limit. Exercises the flipped-ub path
  // too (negative rhs row gets an artificial).
  SparseLpProblem p;
  p.objective = {-1.0};
  p.ub_lhs = CsrMatrix(1);
  p.ub_lhs.append(0, -1.0);
  p.ub_lhs.finish_row();
  p.ub_rhs = {-1.0};
  EXPECT_EQ(opt::solve(p).status, LpStatus::kUnbounded);
}

TEST(RevisedSimplex, HandlesEmptyConstraintBlocks) {
  // Only equalities (no ub rows): min x + y s.t. x + y = 4.
  SparseLpProblem eq_only;
  eq_only.objective = {1.0, 1.0};
  eq_only.eq_lhs = CsrMatrix(2);
  eq_only.eq_lhs.append(0, 1.0);
  eq_only.eq_lhs.append(1, 1.0);
  eq_only.eq_lhs.finish_row();
  eq_only.eq_rhs = {4.0};
  auto solution = opt::solve(eq_only);
  ASSERT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 4.0, 1e-9);

  // Only inequalities (no eq rows) is the Dantzig example above; empty
  // everything is unbounded below at cost -x.
  SparseLpProblem free_var;
  free_var.objective = {-1.0};
  free_var.eq_lhs = CsrMatrix(1);
  free_var.ub_lhs = CsrMatrix(1);
  EXPECT_EQ(opt::solve(free_var).status, LpStatus::kUnbounded);
}

TEST(RevisedSimplex, ReportsIterationLimit) {
  opt::SimplexOptions options;
  options.max_iterations = 1;
  EXPECT_EQ(opt::solve(sparse_dantzig(), options).status,
            LpStatus::kIterationLimit);
}

TEST(RevisedSimplex, ValidatesSparseStructure) {
  SparseLpProblem p;
  p.objective = {1.0, 1.0};
  p.ub_lhs = CsrMatrix(3);  // wrong column count
  p.ub_lhs.append(0, 1.0);
  p.ub_lhs.finish_row();
  p.ub_rhs = {1.0};
  try {
    opt::solve(p);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("A_ub has 3 columns"), std::string::npos) << what;
  }

  SparseLpProblem rows;
  rows.objective = {1.0};
  rows.ub_lhs = CsrMatrix(1);
  rows.ub_lhs.append(0, 1.0);
  rows.ub_lhs.finish_row();
  rows.ub_rhs = {1.0, 2.0};  // extra rhs entry
  try {
    opt::solve(rows);
    FAIL() << "expected util::InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("A_ub has 1 rows"), std::string::npos) << what;
    EXPECT_NE(what.find("b_ub has 2 entries"), std::string::npos) << what;
  }
}

// The documented O(perturbation * rows) error bound on the anti-degeneracy
// rhs perturbation (see SimplexOptions::degeneracy_perturbation): by
// duality the objective shift is at most sum_r |y*_r| * pert * (r + 1).
// For the Dantzig example the optimal duals are (0, 3/2, 1), so the shift
// is bounded by pert * (2 * 1.5 + 3 * 1) = 6 * pert; assert with slack.
TEST(SimplexTest, PerturbationObjectiveErrorIsLinearlyBounded) {
  for (const double pert : {1e-8, 1e-6, 1e-4, 1e-2}) {
    opt::SimplexOptions options;
    options.degeneracy_perturbation = pert;
    const double bound = 10.0 * pert * 3.0;  // slack * pert * rows

    LpProblem dense;
    dense.objective = {-3.0, -5.0};
    dense.ub_lhs = Matrix(3, 2);
    dense.ub_lhs.at(0, 0) = 1.0;
    dense.ub_lhs.at(1, 1) = 2.0;
    dense.ub_lhs.at(2, 0) = 3.0;
    dense.ub_lhs.at(2, 1) = 2.0;
    dense.ub_rhs = {4.0, 12.0, 18.0};
    const auto dense_solution = solve_dense(dense, options);
    ASSERT_EQ(dense_solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(dense_solution.objective, -36.0, bound) << "pert=" << pert;

    const auto sparse_solution = opt::solve(sparse_dantzig(), options);
    ASSERT_EQ(sparse_solution.status, LpStatus::kOptimal);
    EXPECT_NEAR(sparse_solution.objective, -36.0, bound) << "pert=" << pert;
  }
}

// --------------------------------------- sparse vs dense on the geo-IND LP

TEST(RevisedSimplex, AgreesWithDenseOnGeoIndLp) {
  // Solve the one geo-IND LP assembly with both solvers and check they
  // land on the same optimum (tie-broken vertices can differ; the
  // objective cannot).
  for (const std::size_t side : {2u, 3u}) {
    const std::size_t k = side * side;
    std::vector<geo::Point> centers;
    for (std::size_t r = 0; r < side; ++r) {
      for (std::size_t c = 0; c < side; ++c) {
        centers.push_back({static_cast<double>(c) * 250.0,
                           static_cast<double>(r) * 250.0});
      }
    }
    const std::vector<double> prior(k, 1.0 / static_cast<double>(k));
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if (i != j) edges.emplace_back(i, j);  // all pairs: dilation 1
      }
    }
    const double edge_epsilon = std::log(4.0) / 200.0;

    const SparseLpProblem sparse =
        lppm::build_geo_ind_lp_sparse(centers, prior, edges, edge_epsilon);
    const LpProblem dense = to_dense(sparse);

    // Structural agreement: the dense copy round-trips to exactly the
    // sparse assembly's nonzero pattern and values.
    const CsrMatrix from_dense_ub = csr_from_dense(dense.ub_lhs);
    ASSERT_EQ(from_dense_ub.nonzeros(), sparse.ub_lhs.nonzeros());
    for (std::size_t nz = 0; nz < from_dense_ub.nonzeros(); ++nz) {
      EXPECT_EQ(from_dense_ub.col_index(nz), sparse.ub_lhs.col_index(nz));
      EXPECT_DOUBLE_EQ(from_dense_ub.value(nz), sparse.ub_lhs.value(nz));
    }

    opt::SimplexOptions options;
    options.degeneracy_perturbation = 1e-8;
    options.max_iterations = 200000;
    const auto dense_solution = solve_dense(dense, options);
    const auto sparse_solution = opt::solve(sparse, options);
    ASSERT_EQ(dense_solution.status, LpStatus::kOptimal) << "side=" << side;
    ASSERT_EQ(sparse_solution.status, LpStatus::kOptimal) << "side=" << side;
    EXPECT_NEAR(sparse_solution.objective, dense_solution.objective,
                1e-7 * (1.0 + std::abs(dense_solution.objective)))
        << "side=" << side;
  }
}

// ------------------------------------------------------- optimal mechanism

lppm::OptimalMechanismConfig small_grid() {
  lppm::OptimalMechanismConfig c;
  c.per_side = 3;
  c.cell_spacing_m = 250.0;
  c.epsilon = std::log(4.0) / 200.0;
  return c;
}

TEST(OptimalMechanism, ChannelRowsAreDistributions) {
  const lppm::OptimalGeoIndMechanism mech(small_grid());
  for (std::size_t i = 0; i < mech.cell_count(); ++i) {
    double sum = 0.0;
    for (const double p : channel_row(mech, i)) {
      EXPECT_GE(p, -1e-12);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(OptimalMechanism, SatisfiesAllPairGeoIndConstraints) {
  // Octile-deflated neighbour constraints must yield full-epsilon geo-IND
  // between EVERY cell pair, not just grid neighbours. This one case
  // (3x3, ln 4, uniform) happens to read <= 0; the degeneracy
  // perturbation leaves up to 1.0e-4 at 4x4, eps = ln 2/200 (ROADMAP
  // item 3), so other grids would fail it.
  const lppm::OptimalGeoIndMechanism mech(small_grid());
  EXPECT_LE(max_constraint_violation(mech), 1e-9);
}

TEST(OptimalMechanism, BeatsLaplaceQualityLossOnTheGrid) {
  // The whole point of the optimal mechanism: at equal epsilon its
  // expected quality loss is at most the (discretized) Laplace loss. The
  // continuous planar Laplace has E[|noise|] = 2 / eps.
  const auto config = small_grid();
  const lppm::OptimalGeoIndMechanism mech(config);
  const double laplace_loss = 2.0 / config.epsilon;
  EXPECT_LT(mech.expected_quality_loss(), laplace_loss);
}

TEST(OptimalMechanism, SamplesMatchChannelFrequencies) {
  const lppm::OptimalGeoIndMechanism mech(small_grid());
  rng::Engine e(5);
  const geo::Point truth = cell_center(mech, 4);  // grid center
  std::vector<int> counts(mech.cell_count(), 0);
  constexpr int kN = 60000;
  for (int i = 0; i < kN; ++i) {
    const geo::Point q = mech.obfuscate(e, truth)[0];
    for (std::size_t j = 0; j < mech.cell_count(); ++j) {
      if (geo::distance(q, cell_center(mech, j)) < 1e-9) {
        ++counts[j];
        break;
      }
    }
  }
  const auto& row = channel_row(mech, 4);
  for (std::size_t j = 0; j < mech.cell_count(); ++j) {
    EXPECT_NEAR(static_cast<double>(counts[j]) / kN, row[j], 0.01);
  }
}

TEST(OptimalMechanism, InformativePriorReducesLoss) {
  // Concentrating the prior on one cell lets the LP specialize: loss under
  // the point-ish prior is <= loss under the uniform prior.
  const lppm::OptimalGeoIndMechanism uniform(small_grid());
  auto config = small_grid();
  config.prior.assign(9, 0.02);
  config.prior[4] = 0.84;  // mass on the center cell
  const lppm::OptimalGeoIndMechanism informed(config);
  EXPECT_LE(informed.expected_quality_loss(),
            uniform.expected_quality_loss() + 1e-9);
}

TEST(OptimalMechanism, SnapsArbitraryInputToNearestCell) {
  const lppm::OptimalGeoIndMechanism mech(small_grid());
  rng::Engine e(6);
  // A point close to the corner cell behaves like the corner cell.
  const geo::Point corner = cell_center(mech, 0);
  const auto q = mech.obfuscate(e, corner + geo::Point{10.0, -10.0});
  ASSERT_EQ(q.size(), 1u);
  // Output is always some cell center.
  bool is_center = false;
  for (std::size_t j = 0; j < mech.cell_count(); ++j) {
    if (geo::distance(q[0], cell_center(mech, j)) < 1e-9) is_center = true;
  }
  EXPECT_TRUE(is_center);
}

TEST(OptimalMechanism, TailRadiusCoversMass) {
  const lppm::OptimalGeoIndMechanism mech(small_grid());
  const double r = mech.tail_radius(0.05);
  EXPECT_GT(r, 0.0);
  // The full grid diameter always covers everything.
  EXPECT_LE(r, 250.0 * 2.0 * std::sqrt(2.0) + 1e-9);
}

TEST(OptimalMechanism, InvalidConfigsRejected) {
  auto c = small_grid();
  c.per_side = 1;
  EXPECT_THROW(lppm::OptimalGeoIndMechanism{c}, util::InvalidArgument);
  c = small_grid();
  c.prior.assign(5, 0.2);  // wrong size
  EXPECT_THROW(lppm::OptimalGeoIndMechanism{c}, util::InvalidArgument);
  c = small_grid();
  c.prior.assign(9, 0.0);  // zero mass
  EXPECT_THROW(lppm::OptimalGeoIndMechanism{c}, util::InvalidArgument);
}

/// The exact constructor's LP, rebuilt outside it: the mechanism's own
/// cell centers, the prior normalized as the constructor normalizes it,
/// and the directed 8-neighbour edges in the constructor's order at
/// epsilon deflated by the octile dilation. Row order matters: the
/// graded degeneracy perturbation is per row.
SparseLpProblem exact_lp(const lppm::OptimalGeoIndMechanism& mech,
                         const lppm::OptimalMechanismConfig& config) {
  const std::size_t side = config.per_side;
  const std::size_t k = side * side;
  std::vector<geo::Point> centers;
  for (std::size_t i = 0; i < k; ++i) centers.push_back(cell_center(mech, i));
  std::vector<double> prior = config.prior;
  if (prior.empty()) prior.assign(k, 1.0 / static_cast<double>(k));
  double prior_sum = 0.0;
  for (const double p : prior) prior_sum += p;
  for (double& p : prior) p /= prior_sum;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t row = 0; row < side; ++row) {
    for (std::size_t col = 0; col < side; ++col) {
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          const int nr = static_cast<int>(row) + dr;
          const int nc = static_cast<int>(col) + dc;
          if ((dr == 0 && dc == 0) || nr < 0 || nc < 0 ||
              nr >= static_cast<int>(side) || nc >= static_cast<int>(side)) {
            continue;
          }
          edges.emplace_back(row * side + col,
                             static_cast<std::size_t>(nr) * side +
                                 static_cast<std::size_t>(nc));
        }
      }
    }
  }
  const double octile_dilation = 1.0 / std::cos(std::numbers::pi / 8.0);
  const double edge_epsilon = config.epsilon / octile_dilation;
  return lppm::build_geo_ind_lp_sparse(centers, prior, edges, edge_epsilon);
}

TEST(OptimalMechanism, ExactObjectiveMatchesDenseOracle) {
  // The exact constructor solves with the revised simplex. On these
  // degenerate LPs it may land on a different optimal vertex than the
  // dense tableau, so only the optimum itself is compared with the dense
  // reference, and the channel goes through the all-pairs geo-IND check.
  // That check cannot read 1e-9 everywhere: the degeneracy perturbation
  // lets each ratio row slack by up to 1e-8 * (row + 1), which chained
  // along a path of edges leaves violations up to ~1e-5 at 3x3 on any
  // optimal vertex. So the gate is the dense reference's own channel,
  // cleaned the way the constructor cleans it: no less private, to 1e-9.
  struct Case {
    std::size_t side;
    double level;  ///< epsilon = level / 200 m
    bool informed;
  };
  std::vector<Case> cases;
  for (const std::size_t side : {2u, 3u}) {
    for (const double level : {2.0, 4.0, 6.0}) {
      for (const bool informed : {false, true}) {
        cases.push_back({side, std::log(level), informed});
      }
    }
  }
  cases.push_back({4, std::log(4.0), false});

  opt::SimplexOptions options;
  options.degeneracy_perturbation = 1e-8;
  options.max_iterations = 200000;
  for (const Case& c : cases) {
    lppm::OptimalMechanismConfig config;
    config.per_side = c.side;
    config.cell_spacing_m = 250.0;
    config.epsilon = c.level / 200.0;
    const std::size_t k = c.side * c.side;
    if (c.informed) {
      // 70% of the mass on one home cell, the rest spread evenly.
      config.prior.assign(k, 0.3 / static_cast<double>(k - 1));
      config.prior[k / 2] = 0.7;
    }
    const lppm::OptimalGeoIndMechanism mech(config);
    const auto dense = solve_dense(to_dense(exact_lp(mech, config)), options);
    ASSERT_EQ(dense.status, LpStatus::kOptimal);

    const double obj = mech.expected_quality_loss();
    EXPECT_LE(std::abs(obj - dense.objective), 1e-12 * dense.objective)
        << c.side << "x" << c.side << " level " << c.level << " informed "
        << c.informed << ": " << obj << " vs " << dense.objective;

    std::vector<std::vector<double>> dense_channel(k);
    std::vector<geo::Point> centers;
    for (std::size_t i = 0; i < k; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        dense_channel[i].push_back(std::max(0.0, dense.x[i * k + j]));
        row_sum += dense_channel[i].back();
      }
      for (double& p : dense_channel[i]) p /= row_sum;
      centers.push_back(cell_center(mech, i));
    }
    const double dense_violation =
        max_constraint_violation(dense_channel, centers, config.epsilon);
    EXPECT_LE(max_constraint_violation(mech),
              std::max(dense_violation, 0.0) + 1e-9)
        << c.side << "x" << c.side << " level " << c.level << " informed "
        << c.informed;
  }
}

}  // namespace
}  // namespace privlocad
