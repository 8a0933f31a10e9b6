// Tests for the utility metrics: utilization rate and advertising efficacy.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "rng/engine.hpp"
#include "utility/metrics.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::utility {
namespace {

using oracles::efficacy_monte_carlo;

constexpr double kR = 5000.0;  // the paper's targeting radius R = 5 km

// --------------------------------------------------------------- UR single

TEST(UtilizationSingle, IdenticalCirclesGiveOne) {
  EXPECT_NEAR(utilization_rate_single({0, 0}, {0, 0}, kR), 1.0, 1e-12);
}

TEST(UtilizationSingle, DisjointCirclesGiveZero) {
  EXPECT_DOUBLE_EQ(utilization_rate_single({0, 0}, {2 * kR + 1, 0}, kR), 0.0);
}

TEST(UtilizationSingle, KnownLensValue) {
  // Offset d = R: UR = (2*pi/3 - sqrt(3)/2) / pi for unit-ratio circles.
  const double expected =
      (2.0 * std::numbers::pi / 3.0 - std::sqrt(3.0) / 2.0) / std::numbers::pi;
  EXPECT_NEAR(utilization_rate_single({0, 0}, {kR, 0}, kR), expected, 1e-12);
}

TEST(UtilizationSingle, MonotoneInDisplacement) {
  double prev = 1.0;
  for (double d = 0.0; d <= 2.0 * kR; d += kR / 4.0) {
    const double ur = utilization_rate_single({0, 0}, {d, 0}, kR);
    EXPECT_LE(ur, prev + 1e-12);
    prev = ur;
  }
}

// ------------------------------------------------------------ UR candidate

TEST(Utilization, SingleCandidateUsesExactForm) {
  rng::Engine e(1);
  const double mc =
      utilization_rate(e, {0, 0}, {geo::Point{kR, 0}}, kR, 16);
  EXPECT_NEAR(mc, utilization_rate_single({0, 0}, {kR, 0}, kR), 1e-12);
}

TEST(Utilization, UnionOfCandidatesCoversMore) {
  rng::Engine e(2);
  // Two candidates straddling the truth cover more than either alone.
  const std::vector<geo::Point> both{{kR * 0.8, 0}, {-kR * 0.8, 0}};
  const double ur_both = utilization_rate(e, {0, 0}, both, kR, 20000);
  const double ur_one = utilization_rate_single({0, 0}, both[0], kR);
  EXPECT_GT(ur_both, ur_one + 0.05);
}

TEST(Utilization, PerfectCandidateDominatesUnion) {
  rng::Engine e(3);
  const std::vector<geo::Point> with_perfect{{0, 0}, {3 * kR, 0}};
  EXPECT_NEAR(utilization_rate(e, {0, 0}, with_perfect, kR, 20000), 1.0,
              0.01);
}

TEST(Utilization, MonteCarloMatchesExactOnTwoCandidateUnion) {
  // Validate the estimator against inclusion-exclusion on a symmetric
  // two-circle union where the exact value is computable: candidates at
  // +/-d on the x axis. |AOI ∩ (A ∪ B)| = 2*lens(d) - lens_overlap where
  // by symmetry lens_overlap = |AOI ∩ A ∩ B|. Choose d so A ∩ B ∩ AOI
  // = A ∩ B (the pair intersection is contained in the AOI).
  rng::Engine e(4);
  const double d = kR / 2.0;
  const std::vector<geo::Point> candidates{{d, 0}, {-d, 0}};
  const double lens_each = utilization_rate_single({0, 0}, {d, 0}, kR);
  // A and B are 2d = R apart; their lens lies within kR/2 + something of
  // origin -- fully inside AOI for d = R/2 (max extent of A∩B from origin
  // is sqrt(R^2 - d^2) < R). So exact = 2*lens_each - lens(A,B)/|AOI|.
  const double lens_ab = utilization_rate_single({d, 0}, {-d, 0}, kR);
  const double exact = 2.0 * lens_each - lens_ab;
  const double mc = utilization_rate(e, {0, 0}, candidates, kR, 50000);
  EXPECT_NEAR(mc, exact, 0.01);
}

TEST(Utilization, DomainErrors) {
  rng::Engine e(5);
  EXPECT_THROW(utilization_rate(e, {0, 0}, {}, kR), util::InvalidArgument);
  EXPECT_THROW(utilization_rate(e, {0, 0}, {geo::Point{0, 0}}, -1.0),
               util::InvalidArgument);
  EXPECT_THROW(utilization_rate(e, {0, 0}, {geo::Point{0, 0}, {1, 1}}, kR, 0),
               util::InvalidArgument);
}

// ----------------------------------------------------------------- efficacy

TEST(Efficacy, SingleEqualsLensFraction) {
  EXPECT_NEAR(efficacy_single({0, 0}, {0, 0}, kR), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(efficacy_single({0, 0}, {3 * kR, 0}, kR), 0.0);
}

TEST(Efficacy, WeightedAveragesOverSelection) {
  const std::vector<geo::Point> candidates{{0, 0}, {2 * kR + 1, 0}};
  // All weight on the perfect candidate -> efficacy 1.
  EXPECT_NEAR(efficacy_weighted({0, 0}, candidates, {1.0, 0.0}, kR), 1.0,
              1e-12);
  // Even split -> 0.5.
  EXPECT_NEAR(efficacy_weighted({0, 0}, candidates, {0.5, 0.5}, kR), 0.5,
              1e-12);
}

TEST(Efficacy, WeightedValidatesInputs) {
  const std::vector<geo::Point> candidates{{0, 0}};
  EXPECT_THROW(efficacy_weighted({0, 0}, candidates, {0.5}, kR),
               util::InvalidArgument);
  EXPECT_THROW(efficacy_weighted({0, 0}, candidates, {0.5, 0.5}, kR),
               util::InvalidArgument);
  EXPECT_THROW(efficacy_weighted({0, 0}, {}, {}, kR), util::InvalidArgument);
}

TEST(Efficacy, MonteCarloAgreesWithExact) {
  rng::Engine e(6);
  const geo::Point candidate{kR * 0.6, kR * 0.3};
  const double exact = efficacy_single({0, 0}, candidate, kR);
  const double mc = efficacy_monte_carlo(e, {0, 0}, candidate, kR, 100000);
  EXPECT_NEAR(mc, exact, 0.01);
}

TEST(Efficacy, MonteCarloDomainErrors) {
  rng::Engine e(7);
  EXPECT_THROW(efficacy_monte_carlo(e, {0, 0}, {0, 0}, 0.0),
               util::InvalidArgument);
  EXPECT_THROW(efficacy_monte_carlo(e, {0, 0}, {0, 0}, kR, 0),
               util::InvalidArgument);
}

// Parameterized sweep: UR-single and efficacy agree (equal radii) across
// displacement grid -- the symmetry the output-selection analysis uses.
class SymmetryProperty : public ::testing::TestWithParam<double> {};

TEST_P(SymmetryProperty, UrEqualsEfficacyForEqualRadii) {
  const double d = GetParam();
  EXPECT_NEAR(utilization_rate_single({0, 0}, {d, 0}, kR),
              efficacy_single({0, 0}, {d, 0}, kR), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Displacements, SymmetryProperty,
                         ::testing::Values(0.0, 1000.0, 2500.0, 5000.0,
                                           7500.0, 9999.0, 12000.0));

}  // namespace
}  // namespace privlocad::utility
