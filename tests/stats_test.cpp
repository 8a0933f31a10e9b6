// Unit and property tests for the statistics substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/entropy.hpp"
#include "stats/monte_carlo.hpp"
#include "stats/quantiles.hpp"
#include "stats/running_stats.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::stats {
namespace {

using oracles::EmpiricalCdf;

// ----------------------------------------------------------- RunningStats

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAccessorsThrow) {
  const RunningStats s;
  EXPECT_THROW(s.mean(), util::InvalidArgument);
  EXPECT_THROW(s.min(), util::InvalidArgument);
  EXPECT_THROW(s.max(), util::InvalidArgument);
  RunningStats one;
  one.add(1.0);
  EXPECT_THROW(one.variance(), util::InvalidArgument);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole, left, right;
  for (int i = 0; i < 100; ++i) {
    const double v = std::sin(i) * 10.0 + i * 0.1;
    whole.add(v);
    (i < 40 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(3.0);
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 4.0);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25025, 0.001);
}

// -------------------------------------------------------------- quantiles

TEST(Quantile, EndpointsAndMedian) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, SingleSample) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
}

TEST(Quantile, DomainErrors) {
  EXPECT_THROW(quantile({}, 0.5), util::InvalidArgument);
  EXPECT_THROW(quantile({1.0}, 1.5), util::InvalidArgument);
}

TEST(LowerBoundAtConfidence, MatchesPaperSemantics) {
  // Pr(X >= v) = alpha means v is the (1 - alpha) quantile.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const double bound = lower_bound_at_confidence(v, 0.9);
  // 90% of the samples must lie at or above the bound.
  int above = 0;
  for (const double x : v) {
    if (x >= bound) ++above;
  }
  EXPECT_GE(above, 90);
  EXPECT_THROW(lower_bound_at_confidence(v, 1.0), util::InvalidArgument);
}

TEST(EmpiricalCdf, StepFunctionValues) {
  const EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(9.0), 1.0);
}

TEST(EmpiricalCdf, KsStatisticZeroAgainstItself) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i / 1000.0);
  const EmpiricalCdf cdf(samples);
  // Against the true U(0,1] CDF the KS statistic is at most 1/n.
  const double ks = cdf.ks_statistic([](double x) { return x; });
  EXPECT_LE(ks, 1.0 / 1000.0 + 1e-12);
}

TEST(EmpiricalCdf, EmptyRejected) {
  EXPECT_THROW(EmpiricalCdf({}), util::InvalidArgument);
}

// ---------------------------------------------------------------- entropy

TEST(Entropy, UniformTwoLocationsIsLn2) {
  EXPECT_NEAR(location_entropy({50, 50}), std::log(2.0), 1e-12);
}

TEST(Entropy, SingleLocationIsZero) {
  EXPECT_DOUBLE_EQ(location_entropy({100}), 0.0);
}

TEST(Entropy, ZeroFrequenciesIgnored) {
  EXPECT_NEAR(location_entropy({50, 50, 0, 0}), std::log(2.0), 1e-12);
}

TEST(Entropy, SkewedProfileBelowPaperThreshold) {
  // A typical "top-location dominated" profile: entropy < 2 nats, the
  // bucket the paper says 88.8% of users fall into.
  EXPECT_LT(location_entropy({800, 150, 30, 10, 5, 5}), 2.0);
}

TEST(Entropy, UniformManyLocationsAboveThreshold) {
  const std::vector<std::uint64_t> uniform(10, 100);  // ln 10 ~ 2.30
  EXPECT_GT(location_entropy(uniform), 2.0);
}

TEST(Entropy, DomainErrors) {
  EXPECT_THROW(location_entropy({}), util::InvalidArgument);
  EXPECT_THROW(location_entropy({0, 0}), util::InvalidArgument);
}

TEST(EntropyOfDistribution, MatchesFrequencyVersion) {
  EXPECT_NEAR(entropy_of_distribution({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_THROW(entropy_of_distribution({0.5, 0.2}), util::InvalidArgument);
  EXPECT_THROW(entropy_of_distribution({1.5, -0.5}), util::InvalidArgument);
}

// ------------------------------------------------------------ Monte Carlo

TEST(MonteCarlo, AggregatesTrialValues) {
  MonteCarloOptions opts;
  opts.trials = 1000;
  const MonteCarloResult r = run_monte_carlo(
      opts, [](std::uint64_t t) { return static_cast<double>(t % 2); });
  EXPECT_EQ(r.summary.count(), 1000u);
  EXPECT_NEAR(r.summary.mean(), 0.5, 1e-12);
  EXPECT_TRUE(r.samples.empty());
}

TEST(MonteCarlo, KeepSamplesStoresRawValues) {
  MonteCarloOptions opts;
  opts.trials = 10;
  opts.keep_samples = true;
  const MonteCarloResult r = run_monte_carlo(
      opts, [](std::uint64_t t) { return static_cast<double>(t); });
  ASSERT_EQ(r.samples.size(), 10u);
  EXPECT_DOUBLE_EQ(r.samples[7], 7.0);
}

TEST(MonteCarlo, StandardErrorShrinksWithTrials) {
  auto noisy = [](std::uint64_t t) {
    return static_cast<double>((t * 2654435761u) % 1000) / 1000.0;
  };
  MonteCarloOptions small_opts;
  small_opts.trials = 100;
  MonteCarloOptions big_opts;
  big_opts.trials = 10000;
  const double se_small = run_monte_carlo(small_opts, noisy).standard_error();
  const double se_big = run_monte_carlo(big_opts, noisy).standard_error();
  EXPECT_LT(se_big, se_small);
}

TEST(MonteCarlo, ZeroTrialsRejected) {
  MonteCarloOptions opts;
  opts.trials = 0;
  EXPECT_THROW(run_monte_carlo(opts, [](std::uint64_t) { return 0.0; }),
               util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::stats
