// Unit and property tests for the randomness substrate: engine determinism,
// Lambert W accuracy, the inverse-CDF samplers the paper's mechanisms are
// built on, and the ziggurat Gaussian stream a seed alone fixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "geo/point.hpp"
#include "rng/engine.hpp"
#include "rng/lambert_w.hpp"
#include "rng/samplers.hpp"
#include "rng/ziggurat.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::rng {
namespace {

using oracles::lambert_w0;
using oracles::planar_laplace_radius_cdf;

// ----------------------------------------------------------------- Engine

TEST(Engine, DeterministicForSameSeed) {
  Engine a(123);
  Engine b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Engine, DifferentSeedsDiverge) {
  Engine a(1);
  Engine b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Engine, SplitStreamsAreIndependentAndDeterministic) {
  const Engine parent(99);
  Engine child_a = parent.split(7);
  Engine child_a2 = parent.split(7);
  Engine child_b = parent.split(8);
  EXPECT_EQ(child_a(), child_a2());
  EXPECT_NE(child_a(), child_b());
}

TEST(Engine, UniformStaysInHalfOpenUnitInterval) {
  Engine e(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = e.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Engine, UniformPositiveNeverReturnsZero) {
  Engine e(6);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(e.uniform_positive(), 0.0);
}

TEST(Engine, UniformMeanNearHalf) {
  Engine e(7);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += e.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.005);
}

TEST(Engine, UniformInRange) {
  Engine e(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = e.uniform_in(-3.0, 2.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 2.0);
  }
  EXPECT_THROW(e.uniform_in(2.0, 2.0), util::InvalidArgument);
}

TEST(Engine, UniformIndexUnbiasedSupport) {
  Engine e(9);
  std::vector<int> counts(5, 0);
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) ++counts[e.uniform_index(5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.2, 0.02);
  }
  EXPECT_THROW(e.uniform_index(0), util::InvalidArgument);
}

TEST(SplitMix, MatchesReferenceVector) {
  // Reference values for seed 0 from the published SplitMix64 code.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
}

// --------------------------------------------------------------- LambertW

TEST(LambertW, DefiningIdentityBranch0) {
  for (const double x : {-0.36, -0.2, -0.05, 0.5, 1.0, 10.0, 1e4}) {
    const double w = lambert_w0(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-10 * std::max(1.0, std::abs(x)))
        << "x = " << x;
  }
}

TEST(LambertW, DefiningIdentityBranchM1) {
  for (const double x : {-0.367, -0.35, -0.2, -0.1, -0.01, -1e-6}) {
    const double w = lambert_wm1(x);
    EXPECT_NEAR(w * std::exp(w), x, 1e-10) << "x = " << x;
    EXPECT_LE(w, -1.0 + 1e-9);  // branch -1 lives in (-inf, -1]
  }
}

TEST(LambertW, BranchPointValue) {
  const double inv_e = 1.0 / std::numbers::e;
  EXPECT_NEAR(lambert_w0(-inv_e + 1e-12), -1.0, 1e-4);
  EXPECT_NEAR(lambert_wm1(-inv_e + 1e-12), -1.0, 1e-4);
}

TEST(LambertW, KnownValues) {
  EXPECT_NEAR(lambert_w0(1.0), 0.5671432904097838, 1e-12);  // Omega constant
  EXPECT_NEAR(lambert_w0(std::numbers::e), 1.0, 1e-12);
  EXPECT_NEAR(lambert_wm1(-2.0 * std::exp(-2.0)), -2.0, 1e-10);
}

TEST(LambertW, DomainErrors) {
  EXPECT_THROW(lambert_w0(-1.0), util::InvalidArgument);
  EXPECT_THROW(lambert_wm1(0.0), util::InvalidArgument);
  EXPECT_THROW(lambert_wm1(0.5), util::InvalidArgument);
  EXPECT_THROW(lambert_wm1(-1.0), util::InvalidArgument);
}

// --------------------------------------------------------- normal sampler

TEST(StandardNormal, MomentsMatch) {
  Engine e(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double z = standard_normal_ziggurat(e);
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.02);
}

// -------------------------------------------------------- 2-D Gaussian noise

TEST(GaussianNoise, MarginalsAreGaussianWithRequestedSigma) {
  Engine e(13);
  const double sigma = 250.0;
  double sx = 0.0, sx2 = 0.0, sy = 0.0, sy2 = 0.0, sxy = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const geo::Point p = gaussian_noise(e, sigma);
    sx += p.x;
    sy += p.y;
    sx2 += p.x * p.x;
    sy2 += p.y * p.y;
    sxy += p.x * p.y;
  }
  EXPECT_NEAR(sx / kN, 0.0, 2.0);
  EXPECT_NEAR(sy / kN, 0.0, 2.0);
  EXPECT_NEAR(std::sqrt(sx2 / kN), sigma, sigma * 0.02);
  EXPECT_NEAR(std::sqrt(sy2 / kN), sigma, sigma * 0.02);
  EXPECT_NEAR(sxy / kN / (sigma * sigma), 0.0, 0.02);  // uncorrelated
}

TEST(GaussianNoise, ZeroSigmaIsDeterministicOrigin) {
  Engine e(14);
  const geo::Point p = gaussian_noise(e, 0.0);
  EXPECT_DOUBLE_EQ(p.x, 0.0);
  EXPECT_DOUBLE_EQ(p.y, 0.0);
}

// ------------------------------------------------- planar Laplace sampler

TEST(PlanarLaplace, QuantileInvertsCdf) {
  const double eps = std::log(4.0) / 200.0;  // the paper's l=ln4, r=200m
  for (const double p : {0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
    const double r = planar_laplace_radius_quantile(p, eps);
    EXPECT_NEAR(planar_laplace_radius_cdf(r, eps), p, 1e-10) << "p = " << p;
  }
}

TEST(PlanarLaplace, QuantileAtZeroIsZero) {
  EXPECT_DOUBLE_EQ(planar_laplace_radius_quantile(0.0, 0.01), 0.0);
}

TEST(PlanarLaplace, MeanRadiusIsTwoOverEpsilon) {
  // The radial density (eps^2 r e^{-eps r}) is Gamma(2, 1/eps): mean 2/eps.
  Engine e(15);
  const double eps = 0.01;
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    sum += geo::norm(planar_laplace_noise(e, eps));
  }
  EXPECT_NEAR(sum / kN, 2.0 / eps, 2.0 / eps * 0.02);
}

TEST(PlanarLaplace, AngleIsUniform) {
  Engine e(16);
  const double eps = 0.01;
  int quadrant[4] = {0, 0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    const geo::Point p = planar_laplace_noise(e, eps);
    const int q = (p.x >= 0 ? 0 : 1) + (p.y >= 0 ? 0 : 2);
    ++quadrant[q];
  }
  for (const int c : quadrant) {
    EXPECT_NEAR(static_cast<double>(c) / kN, 0.25, 0.02);
  }
}

TEST(PlanarLaplace, InvalidParametersRejected) {
  Engine e(17);
  EXPECT_THROW(planar_laplace_noise(e, 0.0), util::InvalidArgument);
  EXPECT_THROW(planar_laplace_radius_quantile(1.0, 0.01),
               util::InvalidArgument);
  EXPECT_THROW(planar_laplace_radius_cdf(-1.0, 0.01), util::InvalidArgument);
}

// ---------------------------------------------------------- uniform disk

TEST(UniformDisk, StaysInDiskAndAreaUniform) {
  Engine e(18);
  const double radius = 100.0;
  int inside_half_radius = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const geo::Point p = uniform_in_disk(e, radius);
    ASSERT_LE(geo::norm(p), radius + 1e-9);
    if (geo::norm(p) <= radius / 2.0) ++inside_half_radius;
  }
  // Area-uniform: the half-radius disk holds 1/4 of the mass.
  EXPECT_NEAR(static_cast<double>(inside_half_radius) / kN, 0.25, 0.01);
}

// ----------------------------------------------- distributional hygiene

TEST(Engine, UniformPassesChiSquareOnBytes) {
  // Chi-square goodness of fit over 256 buckets of the top byte.
  Engine e(101);
  constexpr int kN = 256000;
  std::vector<int> counts(256, 0);
  for (int i = 0; i < kN; ++i) ++counts[e() >> 56];
  const double expected = kN / 256.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 255 dof: mean 255, std ~22.6; accept within ~5 sigma.
  EXPECT_GT(chi2, 255.0 - 5.0 * 22.6);
  EXPECT_LT(chi2, 255.0 + 5.0 * 22.6);
}

TEST(Engine, SplitStreamsAreDecorrelated) {
  // Correlation between sibling streams must be negligible.
  const Engine parent(77);
  Engine a = parent.split(1);
  Engine b = parent.split(2);
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sum_a += x;
    sum_b += y;
    sum_ab += x * y;
    sum_a2 += x * x;
    sum_b2 += y * y;
  }
  const double cov = sum_ab / kN - (sum_a / kN) * (sum_b / kN);
  const double var_a = sum_a2 / kN - (sum_a / kN) * (sum_a / kN);
  const double var_b = sum_b2 / kN - (sum_b / kN) * (sum_b / kN);
  EXPECT_LT(std::abs(cov / std::sqrt(var_a * var_b)), 0.02);
}

TEST(PlanarLaplace, QuantileIsMonotoneInP) {
  const double eps = 0.005;
  double prev = -1.0;
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double r = planar_laplace_radius_quantile(p, eps);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(PlanarLaplace, QuantileScalesInverselyWithEpsilon) {
  // r_p(eps) = r_p(1) / eps exactly, by the change of variables.
  const double p = 0.7;
  const double base = planar_laplace_radius_quantile(p, 1.0);
  for (const double eps : {0.5, 2.0, 10.0}) {
    EXPECT_NEAR(planar_laplace_radius_quantile(p, eps), base / eps,
                1e-9 * base / eps);
  }
}

// ------------------------- property sweep: sampler CDFs via KS statistic

struct KsCase {
  const char* name;
  double param;
};

class GaussianRadiusKs : public ::testing::TestWithParam<double> {};

TEST_P(GaussianRadiusKs, RadialCdfMatchesRayleigh) {
  const double sigma = GetParam();
  Engine e(21);
  constexpr int kN = 20000;
  std::vector<double> radii;
  radii.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    radii.push_back(geo::norm(gaussian_noise(e, sigma)));
  }
  const double worst =
      oracles::EmpiricalCdf(std::move(radii)).ks_statistic([sigma](double r) {
        return 1.0 - std::exp(-r * r / (2.0 * sigma * sigma));
      });
  // KS 1% critical value for n=20000 is ~0.0115.
  EXPECT_LT(worst, 0.0115) << "sigma = " << sigma;
}

INSTANTIATE_TEST_SUITE_P(SigmaSweep, GaussianRadiusKs,
                         ::testing::Values(10.0, 100.0, 500.0, 2000.0));

// --------------------------------------- ziggurat sampler + batched fills

struct Moments {
  double mean;
  double variance;
  double excess_kurtosis;
};

Moments sample_moments(std::uint64_t seed, int n) {
  Engine e(seed);
  std::vector<double> buffer(4096);
  double s1 = 0.0, s2 = 0.0, s4 = 0.0;
  int remaining = n;
  while (remaining > 0) {
    const std::size_t chunk =
        std::min<std::size_t>(buffer.size(), static_cast<std::size_t>(remaining));
    fill_standard_normal(e, {buffer.data(), chunk});
    for (std::size_t i = 0; i < chunk; ++i) {
      const double z = buffer[i];
      s1 += z;
      s2 += z * z;
      s4 += z * z * z * z;
    }
    remaining -= static_cast<int>(chunk);
  }
  const double mean = s1 / n;
  const double variance = s2 / n - mean * mean;
  const double kurtosis = (s4 / n) / (variance * variance) - 3.0;
  return {mean, variance, kurtosis};
}

double ks_against_normal_cdf(std::uint64_t seed, int n) {
  Engine e(seed);
  std::vector<double> z(static_cast<std::size_t>(n));
  fill_standard_normal(e, z);
  std::sort(z.begin(), z.end());
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    const double ref = 0.5 * std::erfc(-z[static_cast<std::size_t>(i)] /
                                       std::numbers::sqrt2);
    const double emp_hi = static_cast<double>(i + 1) / n;
    const double emp_lo = static_cast<double>(i) / n;
    worst = std::max({worst, std::abs(emp_hi - ref), std::abs(ref - emp_lo)});
  }
  return worst;
}

TEST(Ziggurat, MomentsIncludingExcessKurtosis) {
  // Mean 0, variance 1, excess kurtosis 0. The kurtosis term is the one
  // that catches wedge/tail bugs: a ziggurat that silently clips its tail
  // still has perfect mean and near-perfect variance, but light tails
  // drag the fourth moment visibly below 3.
  const Moments m = sample_moments(31, 400000);
  EXPECT_NEAR(m.mean, 0.0, 0.01);
  EXPECT_NEAR(m.variance, 1.0, 0.01);
  EXPECT_NEAR(m.excess_kurtosis, 0.0, 0.05);
}

TEST(Ziggurat, KsStatisticAgainstNormalCdf) {
  // KS 1% critical value for n=20000 is ~0.0115.
  EXPECT_LT(ks_against_normal_cdf(33, 20000), 0.0115);
}

TEST(Ziggurat, TailPathProducesExtremeValues) {
  // 2M draws should comfortably exceed |z| = 4.5 (expected max ~5.0); a
  // sampler whose tail branch is broken or unreachable stays below it.
  Engine e(35);
  std::vector<double> z(16384);
  double extreme = 0.0;
  for (int pass = 0; pass < 128; ++pass) {
    fill_standard_normal_ziggurat(e, z);
    for (const double v : z) extreme = std::max(extreme, std::abs(v));
  }
  EXPECT_GT(extreme, 4.5);
  EXPECT_LT(extreme, 8.0);  // and nothing absurd
}

TEST(Ziggurat, FillMatchesPerSampleDraws) {
  // The batched fill must consume the engine exactly like repeated
  // single-sample draws: this is what makes obfuscate()/obfuscate_into()
  // produce one and the same stream.
  Engine batched(41);
  Engine single(41);
  std::vector<double> out(1537);  // deliberately not a power of two
  fill_standard_normal_ziggurat(batched, out);
  for (const double v : out) {
    EXPECT_DOUBLE_EQ(v, standard_normal_ziggurat(single));
  }
  EXPECT_EQ(batched(), single());  // engines fully in lockstep after
}

TEST(FillStandardNormal, DeterministicForSameSeed) {
  Engine a(43), b(43);
  std::vector<double> va(257), vb(257);
  fill_standard_normal(a, va);
  fill_standard_normal(b, vb);
  EXPECT_EQ(va, vb);
}

// ---------------------------------------------- one sampler, seed alone

/// FNV-1a 64 over the little-endian bytes of each folded word.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xFFu;
      state *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
};

TEST(SeedAlone, DefaultStreamMatchesGolden) {
  // The default Gaussian stream, pinned directly: fill_standard_normal,
  // gaussian_noise and fill_gaussian_noise_2d drawn in turn from one
  // seed, then the engine's next word. Any change to the ziggurat, the
  // pair order, or the noise kernel changes the digest, so every golden
  // and recorded release built on these draws keeps its meaning.
  constexpr std::uint64_t kGoldenDigest = 0x676c06465597eb3dULL;
  Engine e(20221);
  Fnv1a digest;
  std::vector<double> z(1001);
  fill_standard_normal(e, z);
  for (const double v : z) digest.add(v);
  for (int i = 0; i < 257; ++i) {
    const geo::Point p = gaussian_noise(e, 37.5);
    digest.add(p.x);
    digest.add(p.y);
  }
  std::vector<geo::Point> points(333);
  fill_gaussian_noise_2d(e, 80.0, points, {1234.5, -987.25});
  for (const geo::Point& p : points) {
    digest.add(p.x);
    digest.add(p.y);
  }
  digest.add(e());
  EXPECT_EQ(digest.state, kGoldenDigest);
}

TEST(SeedAlone, EveryNormalEntryPointDrawsTheZigguratStream) {
  // One implementation behind every normal draw: each entry point
  // consumes the engine exactly like hand-rolled ziggurat draws.
  Engine e(61), clone(61);
  std::vector<double> filled(9);
  fill_standard_normal(e, filled);
  for (const double v : filled) EXPECT_EQ(v, standard_normal_ziggurat(clone));

  const geo::Point p = gaussian_noise(e, 3.0);
  EXPECT_EQ(p.x, 3.0 * standard_normal_ziggurat(clone));
  EXPECT_EQ(p.y, 3.0 * standard_normal_ziggurat(clone));
  EXPECT_EQ(e(), clone());
}

// ------------------------------------------------- batched 2-D noise fill

TEST(GaussianNoise2d, MarginalsAreGaussian) {
  // The batched 2-D path (the noise kernel the releases go through)
  // draws zero-mean N(0, sigma^2) on each axis.
  Engine e(71);
  const double sigma = 120.0;
  constexpr int kN = 200000;
  std::vector<geo::Point> points(kN);
  fill_gaussian_noise_2d(e, sigma, points);
  double sx = 0.0, sx2 = 0.0, sy2 = 0.0;
  for (const geo::Point& p : points) {
    sx += p.x + p.y;
    sx2 += p.x * p.x;
    sy2 += p.y * p.y;
  }
  EXPECT_NEAR(sx / (2 * kN), 0.0, 1.0);
  EXPECT_NEAR(std::sqrt(sx2 / kN), sigma, sigma * 0.02);
  EXPECT_NEAR(std::sqrt(sy2 / kN), sigma, sigma * 0.02);
}

TEST(FillGaussianNoise2d, MatchesPerPointDrawsUnderZiggurat) {
  Engine filled(73), manual(73);
  std::vector<geo::Point> out(33);
  const geo::Point center{1000.0, -500.0};
  fill_gaussian_noise_2d(filled, 80.0, out, center);
  for (const geo::Point& p : out) {
    const geo::Point q = center + gaussian_noise(manual, 80.0);
    EXPECT_DOUBLE_EQ(p.x, q.x);
    EXPECT_DOUBLE_EQ(p.y, q.y);
  }
}

TEST(FillGaussianNoise2d, EmptySpanConsumesNothing) {
  Engine e(83), untouched(83);
  fill_gaussian_noise_2d(e, 50.0, {});
  EXPECT_EQ(e(), untouched());
}

}  // namespace
}  // namespace privlocad::rng
