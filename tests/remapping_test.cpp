// Tests for the Bayesian posterior remapper (privacy-free utility
// post-processing for the nomadic one-time path).
#include <gtest/gtest.h>

#include <cmath>

#include "lppm/planar_laplace.hpp"
#include "lppm/remapping.hpp"
#include "rng/engine.hpp"
#include "stats/running_stats.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::lppm {
namespace {

TEST(Remapper, SingleSupportPointAlwaysWins) {
  const BayesianRemapper remapper({{{100.0, 200.0}, 1.0}});
  const geo::Point out = remapper.remap_laplace({-5000, 5000}, 0.01);
  EXPECT_NEAR(out.x, 100.0, 1e-9);
  EXPECT_NEAR(out.y, 200.0, 1e-9);
}

TEST(Remapper, PullsTowardsNearestHeavySupport) {
  const BayesianRemapper remapper(
      {{{0, 0}, 1.0}, {{10000, 0}, 1.0}});
  // Reported close to the first support: posterior mean lands near it.
  const geo::Point out = remapper.remap_laplace({500, 0}, 0.01);
  EXPECT_LT(out.x, 100.0);
}

TEST(Remapper, SymmetricReportSplitsEvenly) {
  const BayesianRemapper remapper({{{0, 0}, 1.0}, {{1000, 0}, 1.0}});
  const geo::Point out = remapper.remap_laplace({500, 0}, 0.01);
  EXPECT_NEAR(out.x, 500.0, 1e-6);  // equidistant -> mean of supports
}

TEST(Remapper, PriorWeightsBias) {
  const BayesianRemapper remapper({{{0, 0}, 9.0}, {{1000, 0}, 1.0}});
  const geo::Point out = remapper.remap_laplace({500, 0}, 0.01);
  EXPECT_LT(out.x, 500.0);  // heavier prior on the left support
}

TEST(Remapper, ZeroWeightSupportIsIgnored) {
  const BayesianRemapper remapper({{{0, 0}, 1.0}, {{1000, 0}, 0.0}});
  const geo::Point out = remapper.remap_laplace({900, 0}, 0.01);
  EXPECT_NEAR(out.x, 0.0, 1e-9);
}

TEST(Remapper, NumericallyStableOverMetroDistances) {
  // At eps = 1 both log-likelihoods (-1414 and -111000) would underflow
  // exp() without the log-shift.
  const BayesianRemapper remapper(
      {{{-40000, -40000}, 1.0}, {{40000, 40000}, 1.0}});
  const geo::Point out = remapper.remap_laplace({-39000, -39000}, 1.0);
  EXPECT_NEAR(out.x, -40000.0, 1e-6);
  EXPECT_FALSE(std::isnan(out.x));
}

TEST(Remapper, ReducesExpectedErrorWithInformativePrior) {
  // The headline property: with the true location on the prior's support,
  // remapping cuts the mean error of planar-Laplace reports.
  const geo::BoundingBox box({-5000, -5000}, {5000, 5000});
  std::vector<PriorPoint> prior = uniform_grid_prior(box, 11);
  const BayesianRemapper remapper(prior);

  const double eps = std::log(4.0) / 200.0;
  const PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  // True location = one of the grid cells' centers.
  const geo::Point truth = prior[60].location;

  rng::Engine e(5);
  stats::RunningStats raw_error, remapped_error;
  for (int i = 0; i < 3000; ++i) {
    const geo::Point reported = mech.obfuscate_one(e, truth);
    raw_error.add(geo::distance(reported, truth));
    remapped_error.add(
        geo::distance(remapper.remap_laplace(reported, eps), truth));
  }
  EXPECT_LT(remapped_error.mean(), raw_error.mean());
}

TEST(Remapper, GridPriorCoversTheBox) {
  const geo::BoundingBox box({0, 0}, {100, 100});
  const auto prior = uniform_grid_prior(box, 4);
  ASSERT_EQ(prior.size(), 16u);
  for (const PriorPoint& p : prior) {
    EXPECT_TRUE(oracles::box_contains(box, p.location));
    EXPECT_DOUBLE_EQ(p.weight, 1.0);
  }
  // Cell centers: first at (12.5, 12.5).
  EXPECT_DOUBLE_EQ(prior[0].location.x, 12.5);
}

TEST(Remapper, DomainErrors) {
  EXPECT_THROW(BayesianRemapper({}), util::InvalidArgument);
  EXPECT_THROW(BayesianRemapper({{{0, 0}, -1.0}}), util::InvalidArgument);
  EXPECT_THROW(BayesianRemapper({{{0, 0}, 0.0}}), util::InvalidArgument);
  const BayesianRemapper remapper({{{0, 0}, 1.0}});
  EXPECT_THROW(remapper.remap_laplace({0, 0}, 0.0), util::InvalidArgument);
  EXPECT_THROW(remapper.remap_laplace({0, 0}, -1.0), util::InvalidArgument);
  EXPECT_THROW(uniform_grid_prior(geo::BoundingBox({0, 0}, {1, 1}), 0),
               util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::lppm
