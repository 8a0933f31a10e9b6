// Tests for the LPPM module: sigma calibration (Lemma 1 / Theorem 2),
// mechanism output statistics, and an empirical check of the geo-IND
// inequality itself on discretized densities.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "lppm/baselines.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/planar_laplace.hpp"
#include "lppm/privacy_params.hpp"
#include "rng/samplers.hpp"
#include "util/validation.hpp"

namespace privlocad::lppm {
namespace {

BoundedGeoIndParams paper_params(std::size_t n = 10, double eps = 1.0) {
  BoundedGeoIndParams p;
  p.radius_m = 500.0;
  p.epsilon = eps;
  p.delta = 0.01;
  p.n = n;
  return p;
}

// ------------------------------------------------------------ calibration

TEST(Calibration, OneFoldSigmaMatchesLemma1) {
  // sigma = (r / eps) * sqrt(ln(1/delta^2) + eps)
  const double sigma = one_fold_sigma(500.0, 1.0, 0.01);
  const double expected = 500.0 * std::sqrt(std::log(1e4) + 1.0);
  EXPECT_NEAR(sigma, expected, 1e-9);
}

TEST(Calibration, NFoldSigmaIsSqrtNTimesOneFold) {
  const BoundedGeoIndParams p = paper_params(10);
  EXPECT_NEAR(n_fold_sigma(p),
              std::sqrt(10.0) * one_fold_sigma(500.0, 1.0, 0.01), 1e-9);
}

TEST(Calibration, CompositionSigmaUsesSplitBudget) {
  const BoundedGeoIndParams p = paper_params(10);
  EXPECT_NEAR(composition_sigma(p),
              one_fold_sigma(500.0, 0.1, 0.001), 1e-9);
}

TEST(Calibration, CompositionNoiseGrowsMuchFasterThanNFold) {
  // The headline analytic claim: sufficient statistics buy sqrt(n) noise
  // growth instead of the composition theorem's ~n growth.
  for (const std::size_t n : {2u, 5u, 10u}) {
    const BoundedGeoIndParams p = paper_params(n);
    EXPECT_GT(composition_sigma(p), n_fold_sigma(p))
        << "composition must be noisier at n = " << n;
  }
  // Ratio grows with n.
  const double ratio2 =
      composition_sigma(paper_params(2)) / n_fold_sigma(paper_params(2));
  const double ratio10 =
      composition_sigma(paper_params(10)) / n_fold_sigma(paper_params(10));
  EXPECT_GT(ratio10, ratio2);
}

TEST(Calibration, SigmaDecreasesWithEpsilon) {
  EXPECT_GT(one_fold_sigma(500.0, 1.0, 0.01),
            one_fold_sigma(500.0, 1.5, 0.01));
}

TEST(Calibration, InvalidParamsRejected) {
  EXPECT_THROW(one_fold_sigma(0.0, 1.0, 0.01), util::InvalidArgument);
  EXPECT_THROW(one_fold_sigma(500.0, -1.0, 0.01), util::InvalidArgument);
  EXPECT_THROW(one_fold_sigma(500.0, 1.0, 1.0), util::InvalidArgument);
  BoundedGeoIndParams p = paper_params();
  p.n = 0;
  EXPECT_THROW(p.validate(), util::InvalidArgument);
}

TEST(GeoIndParams, EpsilonIsLevelOverRadius) {
  const GeoIndParams p{std::log(4.0), 200.0};
  EXPECT_NEAR(p.epsilon(), std::log(4.0) / 200.0, 1e-15);
}

// --------------------------------------------------------- planar Laplace

TEST(PlanarLaplace, SingleOutputCenteredOnTruth) {
  const PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(1);
  const geo::Point truth{1000.0, -500.0};
  geo::Point sum{};
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const auto out = mech.obfuscate(e, truth);
    ASSERT_EQ(out.size(), 1u);
    sum = sum + out[0];
  }
  EXPECT_NEAR(sum.x / kN, truth.x, 10.0);
  EXPECT_NEAR(sum.y / kN, truth.y, 10.0);
  EXPECT_EQ(mech.output_count(), 1u);
}

TEST(PlanarLaplace, TailRadiusHoldsEmpirically) {
  const PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  rng::Engine e(2);
  const double r05 = mech.tail_radius(0.05);
  int beyond = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (geo::distance(mech.obfuscate_one(e, {0, 0}), {0, 0}) > r05) ++beyond;
  }
  EXPECT_NEAR(static_cast<double>(beyond) / kN, 0.05, 0.005);
}

TEST(PlanarLaplace, TailRadiusMonotoneInAlpha) {
  const PlanarLaplaceMechanism mech({std::log(2.0), 200.0});
  EXPECT_GT(mech.tail_radius(0.01), mech.tail_radius(0.05));
  EXPECT_GT(mech.tail_radius(0.05), mech.tail_radius(0.5));
}

// Empirical check of Definition 1: for the planar Laplace density, the
// ratio of densities at any output point q for two nearby inputs p0, p1 is
// bounded by exp(eps * d(p0, p1)).
TEST(PlanarLaplace, GeoIndDensityRatioBound) {
  const double eps = std::log(4.0) / 200.0;
  const geo::Point p0{0, 0};
  const geo::Point p1{150.0, -80.0};
  const double d01 = geo::distance(p0, p1);
  const double bound = std::exp(eps * d01);

  // density(q | p) ~ exp(-eps * |q - p|); the normalizer cancels.
  auto log_density = [&](geo::Point q, geo::Point p) {
    return -eps * geo::distance(q, p);
  };
  for (double x = -400.0; x <= 400.0; x += 50.0) {
    for (double y = -400.0; y <= 400.0; y += 50.0) {
      const double ratio =
          std::exp(log_density({x, y}, p0) - log_density({x, y}, p1));
      EXPECT_LE(ratio, bound * (1.0 + 1e-12));
    }
  }
}

// --------------------------------------------------------- n-fold Gaussian

TEST(NFoldGaussian, ProducesNOutputsAroundTruth) {
  const NFoldGaussianMechanism mech(paper_params(10));
  rng::Engine e(3);
  const geo::Point truth{-2000.0, 3000.0};
  const auto out = mech.obfuscate(e, truth);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(mech.output_count(), 10u);
  // With sigma ~ 4.9 km, outputs stay within ~6 sigma of the truth.
  for (const geo::Point& q : out) {
    EXPECT_LT(geo::distance(q, truth), 6.0 * mech.sigma());
  }
}

TEST(NFoldGaussian, EmpiricalSigmaMatchesTheorem2) {
  const NFoldGaussianMechanism mech(paper_params(10));
  rng::Engine e(4);
  double sum2 = 0.0;
  std::size_t count = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    for (const geo::Point& q : mech.obfuscate(e, {0, 0})) {
      sum2 += q.x * q.x + q.y * q.y;
      count += 2;  // x and y are i.i.d. marginals
    }
  }
  // Per-axis variance should equal sigma^2 (two coordinates per point).
  EXPECT_NEAR(std::sqrt(sum2 / static_cast<double>(count)), mech.sigma(),
              mech.sigma() * 0.03);
}

TEST(NFoldGaussian, SampleMeanConcentratesAsSufficientStatistic) {
  // The mean of the n outputs must be N(p, sigma^2 / n) per axis -- the
  // heart of the Theorem 1/2 argument.
  const std::size_t n = 10;
  const NFoldGaussianMechanism mech(paper_params(n));
  rng::Engine e(5);
  const double expected_mean_sigma =
      mech.sigma() / std::sqrt(static_cast<double>(n));

  double sum2 = 0.0;
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    const geo::Point mean = geo::centroid(mech.obfuscate(e, {0, 0}));
    sum2 += mean.x * mean.x + mean.y * mean.y;
  }
  const double empirical = std::sqrt(sum2 / (2.0 * kTrials));
  EXPECT_NEAR(empirical, expected_mean_sigma, expected_mean_sigma * 0.03);
}

// Empirical (r, eps, delta)-geo-IND check on the sufficient statistic: for
// the 1-D Gaussian N(0, s) vs N(r, s), the privacy-loss bound
// Pr[X in S] <= e^eps Pr[X' in S] + delta holds for every threshold set
// when s is Lemma-1 calibrated. We verify on half-line sets, where the
// worst case lives.
TEST(NFoldGaussian, BoundedGeoIndHoldsOnHalfLines) {
  const double r = 500.0, eps = 1.0, delta = 0.01;
  const double s = one_fold_sigma(r, eps, delta);
  auto gauss_cdf = [](double x, double mu, double sigma) {
    return 0.5 * std::erfc(-(x - mu) / (sigma * std::numbers::sqrt2));
  };
  for (double t = -5.0 * s; t <= 5.0 * s + r; t += s / 20.0) {
    // S = (t, inf): the direction where mean 0 vs mean r differ most.
    const double pr_p0 = 1.0 - gauss_cdf(t, r, s);   // shifted by r
    const double pr_p1 = 1.0 - gauss_cdf(t, 0.0, s);
    EXPECT_LE(pr_p0, std::exp(eps) * pr_p1 + delta + 1e-12)
        << "threshold " << t;
  }
}

TEST(NFoldGaussian, TailRadiusHoldsEmpirically) {
  const NFoldGaussianMechanism mech(paper_params(1));
  rng::Engine e(6);
  const double r05 = mech.tail_radius(0.05);
  int beyond = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (geo::norm(mech.obfuscate(e, {0, 0})[0]) > r05) ++beyond;
  }
  EXPECT_NEAR(static_cast<double>(beyond) / kN, 0.05, 0.006);
}

// ---------------------------------------------------------------- baselines

TEST(NaivePostProcessing, OutputsShareOneAnchor) {
  const NaivePostProcessingMechanism mech(paper_params(10));
  rng::Engine e(7);
  const auto out = mech.obfuscate(e, {0, 0});
  ASSERT_EQ(out.size(), 10u);
  // All outputs lie within scatter radius of their mutual centroid-ish
  // anchor: pairwise distance bounded by 2 * scatter radius.
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = i + 1; j < out.size(); ++j) {
      EXPECT_LE(geo::distance(out[i], out[j]),
                2.0 * mech.scatter_radius() + 1e-9);
    }
  }
}

TEST(NaivePostProcessing, AnchorUsesLemma1Sigma) {
  const NaivePostProcessingMechanism mech(paper_params(10));
  EXPECT_NEAR(mech.sigma(), one_fold_sigma(500.0, 1.0, 0.01), 1e-12);
  EXPECT_DOUBLE_EQ(mech.scatter_radius(), 500.0);
}

TEST(NaivePostProcessing, CustomScatterRadius) {
  const NaivePostProcessingMechanism mech(paper_params(5), 1234.0);
  EXPECT_DOUBLE_EQ(mech.scatter_radius(), 1234.0);
  EXPECT_THROW(NaivePostProcessingMechanism(paper_params(5), -1.0),
               util::InvalidArgument);
}

TEST(PlainComposition, UsesInflatedSigma) {
  const PlainCompositionMechanism mech(paper_params(10));
  EXPECT_NEAR(mech.sigma(), composition_sigma(paper_params(10)), 1e-12);
  rng::Engine e(8);
  EXPECT_EQ(mech.obfuscate(e, {0, 0}).size(), 10u);
}

TEST(Mechanisms, NamesIdentifyParameters) {
  EXPECT_NE(NFoldGaussianMechanism(paper_params(10)).name().find("10-fold"),
            std::string::npos);
  EXPECT_NE(PlainCompositionMechanism(paper_params(3)).name().find("n=3"),
            std::string::npos);
  EXPECT_NE(PlanarLaplaceMechanism({std::log(4.0), 200.0})
                .name()
                .find("laplace"),
            std::string::npos);
}

// Parameterized sweep: every mechanism keeps its advertised output count
// and a finite tail radius across the paper's parameter grid.
struct MechCase {
  std::size_t n;
  double eps;
  double r;
};

class MechanismContract : public ::testing::TestWithParam<MechCase> {};

TEST_P(MechanismContract, OutputCountAndTailsAcrossGrid) {
  const auto& [n, eps, r] = GetParam();
  BoundedGeoIndParams p;
  p.n = n;
  p.epsilon = eps;
  p.radius_m = r;
  p.delta = 0.01;

  rng::Engine e(9);
  const std::vector<std::unique_ptr<Mechanism>> mechanisms = [&] {
    std::vector<std::unique_ptr<Mechanism>> v;
    v.push_back(std::make_unique<NFoldGaussianMechanism>(p));
    v.push_back(std::make_unique<NaivePostProcessingMechanism>(p));
    v.push_back(std::make_unique<PlainCompositionMechanism>(p));
    return v;
  }();
  for (const auto& mech : mechanisms) {
    EXPECT_EQ(mech->obfuscate(e, {10, 20}).size(), n) << mech->name();
    EXPECT_EQ(mech->output_count(), n) << mech->name();
    EXPECT_GT(mech->tail_radius(0.05), 0.0) << mech->name();
    EXPECT_TRUE(std::isfinite(mech->tail_radius(0.05))) << mech->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, MechanismContract,
    ::testing::Values(MechCase{1, 1.0, 500.0}, MechCase{5, 1.0, 500.0},
                      MechCase{10, 1.0, 500.0}, MechCase{10, 1.5, 500.0},
                      MechCase{10, 1.0, 800.0}, MechCase{3, 1.5, 600.0}));

// --------------------------------------- determinism / batched-release API

TEST(DeterminismContract, FixedSeedAloneReproducesReleases) {
  // The contract the goldens and snapshot replays rely on: the engine
  // seed alone fully determines every release -- there is no process
  // state (sampler choice, environment) that could change the stream.
  const NFoldGaussianMechanism mech(paper_params(10));
  rng::Engine a(42), b(42);
  const auto ra = mech.obfuscate(a, {100.0, 200.0});
  const auto rb = mech.obfuscate(b, {100.0, 200.0});
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].x, rb[i].x);
    EXPECT_EQ(ra[i].y, rb[i].y);
  }
  EXPECT_EQ(a(), b());  // engines in lockstep after
}

TEST(DeterminismContract, SeedAloneSelectsTheStream) {
  // The n-fold release is the seed's i.i.d. Gaussian pair stream around
  // the true location (Alg. 3's noise law), and a different seed gives a
  // different release.
  const NFoldGaussianMechanism mech(paper_params(10));
  const geo::Point center{100.0, 200.0};
  rng::Engine a(42), manual(42);
  const auto release = mech.obfuscate(a, center);
  for (const geo::Point& p : release) {
    const geo::Point q = center + rng::gaussian_noise(manual, mech.sigma());
    EXPECT_DOUBLE_EQ(p.x, q.x);
    EXPECT_DOUBLE_EQ(p.y, q.y);
  }

  rng::Engine b(43);
  const auto other = mech.obfuscate(b, center);
  ASSERT_EQ(release.size(), other.size());
  bool any_different = false;
  for (std::size_t i = 0; i < release.size(); ++i) {
    any_different |= release[i].x != other[i].x || release[i].y != other[i].y;
  }
  EXPECT_TRUE(any_different);
}

TEST(ObfuscateInto, SameStreamAsObfuscate) {
  // The zero-allocation path must consume the engine identically to the
  // allocating one, for every mechanism that overrides it and for the
  // base-class fallback.
  const std::vector<std::unique_ptr<Mechanism>> mechanisms = [&] {
    std::vector<std::unique_ptr<Mechanism>> v;
    v.push_back(std::make_unique<NFoldGaussianMechanism>(paper_params(10)));
    v.push_back(std::make_unique<PlainCompositionMechanism>(paper_params(7)));
    v.push_back(
        std::make_unique<NaivePostProcessingMechanism>(paper_params(5)));
    return v;
  }();
  for (const auto& mech : mechanisms) {
    rng::Engine a(77), b(77);
    const auto direct = mech->obfuscate(a, {-300.0, 450.0});
    std::vector<geo::Point> into{{1.0, 2.0}};  // stale contents overwritten
    mech->obfuscate_into(b, {-300.0, 450.0}, into);
    ASSERT_EQ(direct.size(), into.size()) << mech->name();
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_DOUBLE_EQ(direct[i].x, into[i].x) << mech->name();
      EXPECT_DOUBLE_EQ(direct[i].y, into[i].y) << mech->name();
    }
    EXPECT_EQ(a(), b()) << mech->name();  // engines in lockstep after
  }
}

TEST(ObfuscateInto, ReusedBufferKeepsCapacity) {
  const NFoldGaussianMechanism mech(paper_params(10));
  rng::Engine e(78);
  std::vector<geo::Point> buffer;
  mech.obfuscate_into(e, {0.0, 0.0}, buffer);
  EXPECT_EQ(buffer.size(), 10u);
  const std::size_t cap = buffer.capacity();
  mech.obfuscate_into(e, {5.0, 5.0}, buffer);
  EXPECT_EQ(buffer.size(), 10u);
  EXPECT_EQ(buffer.capacity(), cap);  // no reallocation on reuse
}

}  // namespace
}  // namespace privlocad::lppm
