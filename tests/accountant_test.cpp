// Tests for the privacy accountant: the quantitative version of the
// paper's Section III composition argument.
#include <gtest/gtest.h>

#include <cmath>

#include "lppm/accountant.hpp"
#include "util/validation.hpp"

namespace privlocad::lppm {
namespace {

TEST(Accountant, UnknownUserHasZeroSpend) {
  const PrivacyAccountant acc;
  const PrivacySpend spend = acc.spend_for(42);
  EXPECT_EQ(spend.releases, 0u);
  EXPECT_DOUBLE_EQ(spend.basic_epsilon, 0.0);
  EXPECT_DOUBLE_EQ(spend.advanced_epsilon, 0.0);
}

TEST(Accountant, BasicCompositionIsLinear) {
  PrivacyAccountant acc;
  for (int i = 0; i < 100; ++i) acc.record(1, {0.1, 0.001});
  const PrivacySpend spend = acc.spend_for(1);
  EXPECT_EQ(spend.releases, 100u);
  EXPECT_NEAR(spend.basic_epsilon, 10.0, 1e-9);
  EXPECT_NEAR(spend.basic_delta, 0.1, 1e-9);
}

TEST(Accountant, AdvancedCompositionBeatsBasicForManySmallCharges) {
  // The whole point of Dwork-Roth Thm 3.20: sqrt(k) vs k growth.
  PrivacyAccountant acc(1e-6);
  for (int i = 0; i < 10000; ++i) acc.record(1, {0.01, 0.0});
  const PrivacySpend spend = acc.spend_for(1);
  EXPECT_NEAR(spend.basic_epsilon, 100.0, 1e-6);
  EXPECT_LT(spend.advanced_epsilon, spend.basic_epsilon);
  // eps*sqrt(2k ln(1/d')) = 0.01*sqrt(2*10^4*13.8) ~ 5.3, plus the
  // k*eps*(e^eps-1) ~ 1.0 term.
  EXPECT_NEAR(spend.advanced_epsilon,
              0.01 * std::sqrt(2.0e4 * std::log(1e6)) +
                  100.0 * (std::exp(0.01) - 1.0),
              1e-6);
  EXPECT_NEAR(spend.advanced_delta, 1e-6, 1e-12);
}

TEST(Accountant, AdvancedMatchesClosedFormHomogeneous) {
  PrivacyAccountant acc(0.001);
  const double eps = 0.5;
  const int k = 16;
  for (int i = 0; i < k; ++i) acc.record(7, {eps, 0.01});
  const PrivacySpend spend = acc.spend_for(7);
  const double expected =
      eps * std::sqrt(2.0 * k * std::log(1.0 / 0.001)) +
      k * eps * (std::exp(eps) - 1.0);
  EXPECT_NEAR(spend.advanced_epsilon, expected, 1e-9);
  EXPECT_NEAR(spend.advanced_delta, 16 * 0.01 + 0.001, 1e-12);
}

TEST(Accountant, UsersAreIndependent) {
  PrivacyAccountant acc;
  acc.record(1, {1.0, 0.0});
  acc.record(2, {2.0, 0.0});
  EXPECT_DOUBLE_EQ(acc.spend_for(1).basic_epsilon, 1.0);
  EXPECT_DOUBLE_EQ(acc.spend_for(2).basic_epsilon, 2.0);
  EXPECT_EQ(acc.tracked_users(), 2u);
}

TEST(Accountant, TheLongitudinalStoryInNumbers) {
  // A one-time geo-IND user reporting home ~1000 times (the paper's 2-year
  // average) at l = ln4 exhausts any reasonable budget; an Edge-PrivLocAd
  // user pays once for the frozen table regardless of reports.
  PrivacyAccountant acc;
  const double per_report_eps = std::log(4.0);  // l (dimensionless level)
  for (int i = 0; i < 1000; ++i) acc.record(1, {per_report_eps, 0.0});
  acc.record(2, {1.0, 0.01});  // n-fold table generation, once

  EXPECT_GT(acc.spend_for(1).basic_epsilon, 1000.0);  // blown by 1000x
  EXPECT_DOUBLE_EQ(acc.spend_for(2).basic_epsilon, 1.0);
  EXPECT_GT(acc.spend_for(1).basic_epsilon, 10.0);  // past a budget of 10
  EXPECT_LE(acc.spend_for(2).basic_epsilon, 10.0);
}

TEST(Accountant, DomainErrors) {
  EXPECT_THROW(PrivacyAccountant(0.0), util::InvalidArgument);
  EXPECT_THROW(PrivacyAccountant(1.0), util::InvalidArgument);
  PrivacyAccountant acc;
  EXPECT_THROW(acc.record(1, {0.0, 0.0}), util::InvalidArgument);
  EXPECT_THROW(acc.record(1, {1.0, 1.0}), util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::lppm
