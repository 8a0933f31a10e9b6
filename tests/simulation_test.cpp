// Tests for the scenario driver.
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "util/validation.hpp"

namespace privlocad::core {
namespace {

SimulationConfig small_config() {
  SimulationConfig c;
  c.user_count = 15;
  c.advertiser_count = 300;
  c.population.min_check_ins = 100;
  c.population.max_check_ins = 300;
  c.edge.top_params.radius_m = 500.0;
  c.edge.top_params.epsilon = 1.0;
  c.edge.top_params.delta = 0.01;
  c.edge.top_params.n = 10;
  c.edge.management.window_seconds = 90 * trace::kSecondsPerDay;
  return c;
}

TEST(Simulation, RunsEndToEndAndAccountsEveryRequest) {
  const SimulationResult result = run_simulation(small_config());
  EXPECT_EQ(result.users, 15u);
  EXPECT_GT(result.live_requests, 0u);
  // Telemetry covers exactly the live requests (history import does not
  // call serve).
  EXPECT_EQ(result.telemetry.requests, result.live_requests);
  EXPECT_EQ(result.telemetry.top_reports + result.telemetry.nomadic_reports,
            result.live_requests);
  EXPECT_LE(result.ads_delivered_per_request,
            result.ads_matched_per_request);
}

TEST(Simulation, DeterministicForFixedSeed) {
  const SimulationResult a = run_simulation(small_config());
  const SimulationResult b = run_simulation(small_config());
  EXPECT_EQ(a.live_requests, b.live_requests);
  EXPECT_DOUBLE_EQ(a.top_report_ratio, b.top_report_ratio);
  EXPECT_DOUBLE_EQ(a.attack_rates.rate(0, 0), b.attack_rates.rate(0, 0));
}

TEST(Simulation, SeedChangesTraffic) {
  SimulationConfig other = small_config();
  other.seed = 999;
  const SimulationResult a = run_simulation(small_config());
  const SimulationResult b = run_simulation(other);
  // Same population parent is derived from the seed, so traffic differs.
  EXPECT_NE(a.live_requests, b.live_requests);
}

TEST(Simulation, DefenceHoldsOnSmallPopulation) {
  SimulationConfig c = small_config();
  c.user_count = 30;
  const SimulationResult result = run_simulation(c);
  // The longitudinal attack against the real system must stay far from
  // the one-time-geo-IND regime (>90% recovery within 200 m).
  EXPECT_LT(result.attack_rates.rate(0, 0), 0.2);
}

TEST(Simulation, MostTrafficServedFromPermanentCandidates) {
  const SimulationResult result = run_simulation(small_config());
  EXPECT_GT(result.top_report_ratio, 0.5);
}

TEST(Simulation, InvalidConfigRejected) {
  SimulationConfig c = small_config();
  c.user_count = 0;
  EXPECT_THROW(run_simulation(c), util::InvalidArgument);
  c = small_config();
  c.history_fraction = 1.0;
  EXPECT_THROW(run_simulation(c), util::InvalidArgument);
  c = small_config();
  c.attack_thresholds_m = {};
  EXPECT_THROW(run_simulation(c), util::InvalidArgument);
}

}  // namespace
}  // namespace privlocad::core
