// Tests for the empirical geo-IND verifier: every mechanism in the library
// must pass at its advertised parameters, and deliberately broken
// mechanisms must be refuted (the negative controls that prove the tester
// has teeth).
#include <gtest/gtest.h>

#include <cmath>

#include "lppm/baselines.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/planar_laplace.hpp"
#include "rng/samplers.hpp"
#include "rng/engine.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::lppm {
namespace {

using oracles::verify_geo_ind;
using oracles::VerifierConfig;
using oracles::VerifierReport;

BoundedGeoIndParams paper_params(std::size_t n) {
  BoundedGeoIndParams p;
  p.radius_m = 500.0;
  p.epsilon = 1.0;
  p.delta = 0.01;
  p.n = n;
  return p;
}

/// Negative control: "Gaussian" with half the calibrated noise.
class UnderNoisedMechanism final : public Mechanism {
 public:
  explicit UnderNoisedMechanism(BoundedGeoIndParams params)
      : sigma_(n_fold_sigma(params) * 0.25) {}
  std::vector<geo::Point> obfuscate(rng::Engine& engine,
                                    geo::Point real) const override {
    return {real + rng::gaussian_noise(engine, sigma_)};
  }
  std::size_t output_count() const override { return 1; }
  std::string name() const override { return "under-noised"; }
  double tail_radius(double) const override { return sigma_; }

 private:
  double sigma_;
};

/// Negative control: releases the true location shifted by a constant --
/// no randomness at all.
class LeakyMechanism final : public Mechanism {
 public:
  std::vector<geo::Point> obfuscate(rng::Engine&,
                                    geo::Point real) const override {
    return {real + geo::Point{10.0, 0.0}};
  }
  std::size_t output_count() const override { return 1; }
  std::string name() const override { return "leaky"; }
  double tail_radius(double) const override { return 10.0; }
};

/// Degenerate: a constant output regardless of input (perfectly private,
/// perfectly useless, and un-binnable).
class ConstantMechanism final : public Mechanism {
 public:
  std::vector<geo::Point> obfuscate(rng::Engine&,
                                    geo::Point) const override {
    return {geo::Point{0.0, 0.0}};
  }
  std::size_t output_count() const override { return 1; }
  std::string name() const override { return "constant"; }
  double tail_radius(double) const override { return 0.0; }
};

TEST(Verifier, OneFoldGaussianAtCalibratedSigmaPasses) {
  const NFoldGaussianMechanism mech(paper_params(1));
  rng::Engine e(1);
  VerifierConfig config;
  config.radius_m = 500.0;
  config.epsilon = 1.0;
  config.delta = 0.01;
  const VerifierReport report = verify_geo_ind(e, mech, {0, 0}, config);
  EXPECT_TRUE(report.consistent) << "excess " << report.worst_excess;
  EXPECT_GT(report.sets_tested, 100u);
}

TEST(Verifier, NFoldFirstOutputPasses) {
  // Each single output of the 10-fold mechanism is even quieter than the
  // claim requires (sigma is sqrt(10)x the 1-fold), so its per-release
  // marginal passes easily.
  const NFoldGaussianMechanism mech(paper_params(10));
  rng::Engine e(2);
  VerifierConfig config;
  config.radius_m = 500.0;
  config.epsilon = 1.0;
  config.delta = 0.01;
  EXPECT_TRUE(verify_geo_ind(e, mech, {0, 0}, config).consistent);
}

TEST(Verifier, PlanarLaplaceAtItsLevelPasses) {
  // l = ln4 at r = 200 m: per-release (ln4)-geo-IND at distance 200 m.
  const PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(3);
  VerifierConfig config;
  config.radius_m = 200.0;
  config.epsilon = std::log(4.0);
  config.delta = 0.0;
  EXPECT_TRUE(verify_geo_ind(e, mech, {0, 0}, config).consistent);
}

TEST(Verifier, RefutesUnderNoisedMechanism) {
  const UnderNoisedMechanism broken(paper_params(1));
  rng::Engine e(4);
  VerifierConfig config;
  config.radius_m = 500.0;
  config.epsilon = 1.0;
  config.delta = 0.01;
  const VerifierReport report = verify_geo_ind(e, broken, {0, 0}, config);
  EXPECT_FALSE(report.consistent);
  EXPECT_GT(report.worst_excess, 0.05);
}

TEST(Verifier, RefutesDeterministicLeak) {
  const LeakyMechanism leaky;
  rng::Engine e(5);
  VerifierConfig config;
  config.radius_m = 500.0;
  config.epsilon = 1.0;
  config.delta = 0.01;
  EXPECT_FALSE(verify_geo_ind(e, leaky, {0, 0}, config).consistent);
}

TEST(Verifier, OverClaimedEpsilonIsRefuted) {
  // The calibrated 1-fold Gaussian at eps = 1 cannot also satisfy a much
  // stronger claim (eps = 0.2 at the same delta).
  const NFoldGaussianMechanism mech(paper_params(1));
  rng::Engine e(6);
  VerifierConfig config;
  config.radius_m = 500.0;
  config.epsilon = 0.2;
  config.delta = 0.001;
  config.estimation_slack = 0.01;
  EXPECT_FALSE(verify_geo_ind(e, mech, {0, 0}, config).consistent);
}

TEST(Verifier, DomainErrors) {
  const NFoldGaussianMechanism mech(paper_params(1));
  rng::Engine e(7);
  VerifierConfig bad;
  bad.samples = 10;
  EXPECT_THROW(verify_geo_ind(e, mech, {0, 0}, bad), util::InvalidArgument);
  bad = VerifierConfig{};
  bad.bins = 1;
  EXPECT_THROW(verify_geo_ind(e, mech, {0, 0}, bad), util::InvalidArgument);
  // Constant outputs cannot be binned: zero-width range is rejected.
  EXPECT_THROW(
      verify_geo_ind(e, ConstantMechanism{}, {0, 0}, VerifierConfig{}),
      util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::lppm
