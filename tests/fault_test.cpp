// Fault-tolerance suite: the Status/Result taxonomy, deterministic fault
// injection, retry/backoff semantics, and -- the point of it all -- the
// fail-private invariant: whatever faults fire, a raw location never
// crosses the edge boundary and no request escalates to an uncaught
// exception.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "core/system.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "par/thread_pool.hpp"
#include "trace/synthetic.hpp"
#include "util/status.hpp"
#include "util/validation.hpp"

namespace privlocad {
namespace {

core::EdgeConfig fast_config() {
  core::EdgeConfig c;
  c.top_params.radius_m = 500.0;
  c.top_params.epsilon = 1.0;
  c.top_params.delta = 0.01;
  c.top_params.n = 10;
  c.management.window_seconds = 1000;
  // Tests must not sleep: retry instantly.
  c.retry.initial_backoff_us = 0.0;
  c.retry.max_backoff_us = 0.0;
  c.retry.jitter = 0.0;
  return c;
}

fault::FaultPlan serve_plan(double probability, std::uint64_t seed = 7) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.site(fault::Site::kServe).probability = probability;
  return plan;
}

/// A device with user 1 anchored at `home` (50 historical check-ins).
void anchor_home(core::EdgeDevice& device, geo::Point home) {
  trace::UserTrace history;
  history.user_id = 1;
  for (int i = 0; i < 50; ++i) history.check_ins.push_back({home, i});
  device.import_history(1, history);
}

/// Gives `device` (which must hold no users yet) user 1 anchored at
/// `home` with its permanent candidate set already frozen. The set is
/// frozen by one top-location request on a fault-free device and moved
/// over through a snapshot, so `device`'s fault seam never sees it.
void anchor_frozen_home(core::EdgeDevice& device, geo::Point home) {
  fault::FaultInjector no_faults;
  core::EdgeConfig clean = device.config();
  clean.faults = &no_faults;
  core::EdgeDevice warm(clean);
  anchor_home(warm, home);
  const core::ServeResult frozen = warm.serve(1, home, 2000);
  ASSERT_TRUE(frozen.released());
  ASSERT_EQ(frozen.reported.kind, core::ReportKind::kTopLocation);
  static int snapshots = 0;
  const std::string path = testing::TempDir() + "frozen_home_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(++snapshots) + ".snap";
  ASSERT_TRUE(warm.save_snapshot(path).ok());
  ASSERT_TRUE(device.open_snapshot(path).ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- Status/Result

TEST(Status, DefaultIsOkErrorsCarryCodeAndMessage) {
  const util::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), util::ErrorCode::kOk);
  EXPECT_EQ(ok.to_string(), "OK");

  const util::Status down = util::Status::unavailable("store down");
  EXPECT_FALSE(down.ok());
  EXPECT_TRUE(down.transient());
  EXPECT_EQ(down.code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(down.to_string(), "UNAVAILABLE: store down");

  const util::Status bad = util::Status::parse_error("ragged row");
  EXPECT_FALSE(bad.transient());
}

TEST(Status, TransientSetIsExactlyTheRetryableCodes) {
  using util::ErrorCode;
  EXPECT_TRUE(util::is_transient(ErrorCode::kUnavailable));
  EXPECT_TRUE(util::is_transient(ErrorCode::kTimeout));
  EXPECT_TRUE(util::is_transient(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(util::is_transient(ErrorCode::kOk));
  EXPECT_FALSE(util::is_transient(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(util::is_transient(ErrorCode::kParseError));
  EXPECT_FALSE(util::is_transient(ErrorCode::kIoError));
  EXPECT_FALSE(util::is_transient(ErrorCode::kInternal));
}

TEST(Status, ConstructingAnOkErrorStatusThrows) {
  EXPECT_THROW(util::Status(util::ErrorCode::kOk, "not an error"),
               util::InvalidArgument);
}

TEST(Result, HoldsValueOrStatus) {
  const util::Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);

  const util::Result<int> bad(
      util::Status(util::ErrorCode::kTimeout, "deadline"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_THROW(bad.value(), util::StatusError);
  EXPECT_THROW(util::Result<int>(util::Status()), util::InvalidArgument);
}

TEST(Status, FromExceptionMapsTheTaxonomy) {
  using util::ErrorCode;
  EXPECT_EQ(util::status_from_exception(util::ParseError("bad", 3)).code(),
            ErrorCode::kParseError);
  EXPECT_EQ(util::status_from_exception(util::IoError("gone")).code(),
            ErrorCode::kIoError);
  EXPECT_EQ(util::status_from_exception(util::InvalidArgument("neg")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(util::status_from_exception(std::runtime_error("boom")).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(util::status_from_exception(
                util::StatusError(util::Status::unavailable("x")))
                .code(),
            ErrorCode::kUnavailable);
}

TEST(Status, ParseErrorIsAnInvalidArgumentWithALine) {
  const util::ParseError error("ragged row", 12);
  EXPECT_EQ(error.line(), 12u);
  EXPECT_EQ(error.code(), util::ErrorCode::kParseError);
  const util::InvalidArgument* as_invalid = &error;  // compile-time is-a
  EXPECT_NE(as_invalid, nullptr);
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesTheDocumentedGrammar) {
  const util::Result<fault::FaultPlan> parsed = fault::FaultPlan::parse(
      "seed=42;serve:p=0.3;exchange:p=0.25,latency_us=50,code=timeout");
  ASSERT_TRUE(parsed.ok());
  const fault::FaultPlan& plan = *parsed;
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.any());
  EXPECT_DOUBLE_EQ(plan.site(fault::Site::kServe).probability, 0.3);
  EXPECT_DOUBLE_EQ(plan.site(fault::Site::kExchange).probability, 0.25);
  EXPECT_DOUBLE_EQ(plan.site(fault::Site::kExchange).latency_us, 50.0);
  EXPECT_EQ(plan.site(fault::Site::kExchange).code,
            util::ErrorCode::kTimeout);
  EXPECT_FALSE(plan.summary().empty());
}

TEST(FaultPlan, MalformedSpecsAreParseErrors) {
  for (const char* spec :
       {"serve", "unknown_site:p=0.1", "serve:p", "serve:p=2.0",
        "serve:p=nope", "serve:latency_us=-1", "serve:code=weird",
        "serve:frequency=0.5", "seed=abc"}) {
    const util::Result<fault::FaultPlan> parsed =
        fault::FaultPlan::parse(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), util::ErrorCode::kParseError) << spec;
  }
}

TEST(FaultPlan, RemovedPersistenceSitesAreUnknown) {
  for (const char* spec : {"table_store:p=0.3", "profile_store:p=0.3"}) {
    const util::Result<fault::FaultPlan> parsed =
        fault::FaultPlan::parse(spec);
    ASSERT_FALSE(parsed.ok()) << spec;
    EXPECT_EQ(parsed.status().code(), util::ErrorCode::kParseError) << spec;
    EXPECT_NE(parsed.status().message().find("unknown fault site"),
              std::string::npos)
        << spec;
  }
}

TEST(FaultPlan, FromEnvFailsLoudlyOnTypos) {
  ::setenv("PRIVLOCAD_FAULTS", "serve:p=0.5", 1);
  EXPECT_DOUBLE_EQ(
      fault::FaultPlan::from_env().site(fault::Site::kServe).probability,
      0.5);
  ::setenv("PRIVLOCAD_FAULTS", "serve:p=banana", 1);
  EXPECT_THROW(fault::FaultPlan::from_env(), util::StatusError);
  ::unsetenv("PRIVLOCAD_FAULTS");
  EXPECT_FALSE(fault::FaultPlan::from_env().any());
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjector, DisabledInjectorAlwaysPasses) {
  fault::FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.check(fault::Site::kServe).ok());
  }
  EXPECT_EQ(injector.injected_total(), 0u);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  fault::FaultInjector a(serve_plan(0.3, 99));
  fault::FaultInjector b(serve_plan(0.3, 99));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.check(fault::Site::kServe).ok(),
              b.check(fault::Site::kServe).ok())
        << "arrival " << i;
  }
  EXPECT_EQ(a.injected(fault::Site::kServe), b.injected(fault::Site::kServe));
  EXPECT_EQ(a.checks(fault::Site::kServe), 500u);
  // The empirical rate should be in the right ballpark for p=0.3.
  EXPECT_GT(a.injected(fault::Site::kServe), 100u);
  EXPECT_LT(a.injected(fault::Site::kServe), 200u);
}

// Seeded fault schedules are part of the reproducibility contract: a
// recorded seed must replay the exact same fault mix. These masks (bit i
// set = arrival i fired, p = 0.5, seed 42) pin each site's first 64
// decisions.
TEST(FaultInjector, SeededSchedulesArePinned) {
  const std::pair<fault::Site, std::uint64_t> pinned[] = {
      {fault::Site::kExchange, 0xbfaf98d064025838ULL},
      {fault::Site::kServe, 0x350c4b0d4e871d44ULL},
  };
  for (const auto& [site, expected] : pinned) {
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.site(site).probability = 0.5;
    fault::FaultInjector injector(plan);
    std::uint64_t fired = 0;
    for (int i = 0; i < 64; ++i) {
      if (!injector.check(site).ok()) fired |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(fired, expected) << fault::site_name(site);
  }
}

TEST(FaultInjector, SitesScheduleIndependently) {
  fault::FaultPlan plan = serve_plan(1.0);
  plan.site(fault::Site::kExchange).probability = 0.0;
  fault::FaultInjector injector(plan);
  EXPECT_FALSE(injector.check(fault::Site::kServe).ok());
  EXPECT_TRUE(injector.check(fault::Site::kExchange).ok());
  EXPECT_EQ(injector.injected_total(), 1u);
}

TEST(FaultInjector, FiredChecksCarryTheConfiguredCode) {
  fault::FaultPlan plan = serve_plan(1.0);
  plan.site(fault::Site::kServe).code = util::ErrorCode::kTimeout;
  fault::FaultInjector injector(plan);
  const util::Status status = injector.check(fault::Site::kServe);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
  EXPECT_TRUE(status.transient());
}

// ---------------------------------------------------------- retry/backoff

TEST(Retry, BackoffGrowsGeometricallyAndCaps) {
  fault::RetryPolicy policy;
  policy.initial_backoff_us = 50.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 5000.0;
  policy.jitter = 0.0;
  rng::Engine engine(1);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 0, engine), 50.0);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 1, engine), 100.0);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 6, engine), 3200.0);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 7, engine), 5000.0);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 20, engine), 5000.0);
}

// Regression: the capped-exponential delay must stay exact at the cap for
// ANY retry index -- astronomical counts (a "retry forever" policy passes
// SIZE_MAX) must neither overflow past the cap nor degenerate into an
// O(retry) loop. Each case below completes instantly post-fix; the
// multiplier == 1 case in particular used to spin `retry` iterations.
TEST(Retry, BackoffCapsAtAstronomicalRetryCounts) {
  fault::RetryPolicy policy;
  policy.initial_backoff_us = 50.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_us = 5000.0;
  policy.jitter = 0.0;
  rng::Engine engine(1);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 63, engine), 5000.0);
  EXPECT_DOUBLE_EQ(fault::backoff_delay_us(policy, 4096, engine), 5000.0);
  EXPECT_DOUBLE_EQ(
      fault::backoff_delay_us(
          policy, std::numeric_limits<std::size_t>::max(), engine),
      5000.0);

  // A non-growing multiplier keeps the initial delay at any retry index
  // (and must not iterate its way there).
  policy.backoff_multiplier = 1.0;
  EXPECT_DOUBLE_EQ(
      fault::backoff_delay_us(
          policy, std::numeric_limits<std::size_t>::max(), engine),
      50.0);

  // Zero initial backoff stays zero -- and must not form 0 * inf = NaN
  // through the closed-form growth factor.
  policy.backoff_multiplier = 2.0;
  policy.initial_backoff_us = 0.0;
  const double zero_delay = fault::backoff_delay_us(
      policy, std::numeric_limits<std::size_t>::max(), engine);
  EXPECT_DOUBLE_EQ(zero_delay, 0.0);
}

TEST(Retry, JitterStaysInsideTheDocumentedBand) {
  fault::RetryPolicy policy;
  policy.initial_backoff_us = 100.0;
  policy.jitter = 0.5;
  rng::Engine engine(3);
  for (int i = 0; i < 200; ++i) {
    const double d = fault::backoff_delay_us(policy, 0, engine);
    EXPECT_GE(d, 50.0);
    EXPECT_LE(d, 150.0);
  }
}

TEST(Retry, PolicyValidation) {
  fault::RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(policy.validate(), util::InvalidArgument);
  policy = {};
  policy.jitter = 1.5;
  EXPECT_THROW(policy.validate(), util::InvalidArgument);
  policy = {};
  policy.backoff_multiplier = 0.5;
  EXPECT_THROW(policy.validate(), util::InvalidArgument);
  policy = {};
  EXPECT_NO_THROW(policy.validate());
}

TEST(Retry, RetriesTransientUntilSuccess) {
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 0.0;
  policy.max_backoff_us = 0.0;
  policy.jitter = 0.0;
  rng::Engine engine(1);
  int calls = 0;
  std::size_t retries = 0;
  const util::Status status = fault::retry_with_backoff(
      policy, engine,
      [&calls]() -> util::Status {
        return ++calls < 3 ? util::Status::unavailable("hiccup")
                           : util::Status();
      },
      &retries);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

TEST(Retry, NonTransientFailsFast) {
  fault::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 0.0;
  policy.jitter = 0.0;
  rng::Engine engine(1);
  int calls = 0;
  const util::Status status = fault::retry_with_backoff(
      policy, engine, [&calls]() -> util::Status {
        ++calls;
        return util::Status::parse_error("corrupt");
      });
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustionReturnsTheLastTransientStatus) {
  fault::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 0.0;
  policy.max_backoff_us = 0.0;
  policy.jitter = 0.0;
  rng::Engine engine(1);
  int calls = 0;
  std::size_t retries = 0;
  const util::Status status = fault::retry_with_backoff(
      policy, engine,
      [&calls]() -> util::Status {
        ++calls;
        return util::Status(util::ErrorCode::kTimeout, "still down");
      },
      &retries);
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2u);
}

// ----------------------------------------------- degraded serving (edge)

TEST(FaultServing, CertainFaultWithNoCacheDropsTheRequest) {
  fault::FaultInjector injector(serve_plan(1.0));
  core::EdgeConfig config = fast_config().with_seed(42);
  config.faults = &injector;
  core::EdgeDevice device(config);

  const core::ServeResult result = device.serve(1, {0, 0}, 100);
  EXPECT_EQ(result.outcome, core::ServeOutcome::kDegradedDropped);
  EXPECT_FALSE(result.released());
  EXPECT_TRUE(result.degraded());
  EXPECT_TRUE(result.status.transient());
  EXPECT_EQ(device.telemetry().degraded_dropped, 1u);
  EXPECT_EQ(device.telemetry().requests, 1u);
}

TEST(FaultServing, CertainFaultReplaysTheFrozenCandidateSet) {
  fault::FaultInjector injector(serve_plan(1.0));
  core::EdgeConfig config = fast_config().with_seed(42);
  config.faults = &injector;
  core::EdgeDevice device(config);

  const geo::Point home{0, 0};
  anchor_frozen_home(device, home);
  const double spent_before = device.accountant().spend_for(1).basic_epsilon;

  const core::ServeResult result = device.serve(1, home, 2000);
  EXPECT_EQ(result.outcome, core::ServeOutcome::kDegradedCached);
  EXPECT_TRUE(result.released());
  EXPECT_EQ(result.reported.kind, core::ReportKind::kTopLocation);
  // Fail private: the replayed candidate is an obfuscated point, not the
  // raw top location.
  EXPECT_GT(geo::distance(result.reported.location, home), 0.0);
  // Replay is post-processing: no new privacy charge.
  EXPECT_DOUBLE_EQ(device.accountant().spend_for(1).basic_epsilon,
                   spent_before);
  EXPECT_EQ(device.telemetry().degraded_cached, 1u);
}

TEST(FaultServing, TransientFaultsAreRetriedToSuccess) {
  // p=0.5 with 4 attempts: nearly every request recovers via retry.
  fault::FaultInjector injector(serve_plan(0.5, 11));
  core::EdgeConfig config = fast_config().with_seed(42);
  config.faults = &injector;
  config.retry.max_attempts = 16;
  core::EdgeDevice device(config);

  std::size_t released = 0;
  for (int i = 0; i < 200; ++i) {
    const core::ServeResult result =
        device.serve(1, {i * 700.0, 0.0}, 100 + i);
    if (result.released()) ++released;
  }
  const core::EdgeTelemetry t = device.telemetry();
  EXPECT_EQ(released, 200u) << "16 attempts at p=0.5 should always recover";
  EXPECT_GT(t.served_after_retry, 50u);
  EXPECT_GE(t.serve_retries, t.served_after_retry);
  EXPECT_EQ(t.requests, 200u);
}

TEST(FaultServing, OutcomesAreDeterministicForAFixedSeed) {
  auto run = [] {
    fault::FaultInjector injector(serve_plan(0.4, 21));
    core::EdgeConfig config = fast_config().with_seed(42);
    config.faults = &injector;
    config.retry.max_attempts = 2;
    core::EdgeDevice device(config);
    anchor_frozen_home(device, {0, 0});
    std::vector<std::pair<core::ServeOutcome, geo::Point>> outcomes;
    for (int i = 0; i < 100; ++i) {
      const core::ServeResult r = device.serve(1, {0, 0}, 2000 + i);
      outcomes.emplace_back(r.outcome, r.released() ? r.reported.location
                                                    : geo::Point{0, 0});
    }
    return outcomes;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].first, second[i].first) << i;
    EXPECT_EQ(first[i].second.x, second[i].second.x) << i;
    EXPECT_EQ(first[i].second.y, second[i].second.y) << i;
  }
}

TEST(FaultServing, FailPrivateUnderHeavyMixedFaults) {
  // 30%+ fault rate on the serve seam: every outcome must be typed, and
  // any released location must differ from the raw input.
  fault::FaultInjector injector(serve_plan(0.35, 5));
  core::EdgeConfig config = fast_config().with_seed(9);
  config.faults = &injector;
  config.retry.max_attempts = 2;
  core::EdgeDevice device(config);
  const geo::Point home{0, 0};
  anchor_frozen_home(device, home);

  std::size_t drops = 0;
  for (int i = 0; i < 300; ++i) {
    // Alternate the anchored top location and fresh nomadic spots.
    const geo::Point raw =
        i % 2 == 0 ? home : geo::Point{3000.0 + i * 600.0, -900.0 * i};
    const core::ServeResult r = device.serve(1, raw, 2000 + i);
    switch (r.outcome) {
      case core::ServeOutcome::kServed:
      case core::ServeOutcome::kServedAfterRetry:
      case core::ServeOutcome::kDegradedCached:
        ASSERT_TRUE(r.released());
        EXPECT_GT(geo::distance(r.reported.location, raw), 0.0)
            << "raw location leaked at request " << i;
        break;
      case core::ServeOutcome::kDegradedDropped:
        ++drops;
        EXPECT_FALSE(r.released());
        break;
      case core::ServeOutcome::kFailed:
        FAIL() << "injected transient faults must degrade, not fail: "
               << r.status.to_string();
    }
  }
  EXPECT_GT(injector.injected_total(), 0u);
  // Nomadic requests that hit exhausted retries have no cache: some drops
  // must have occurred at this fault rate.
  EXPECT_GT(drops, 0u);
}

// -------------------------------------------------- ConcurrentEdge batch

TEST(FaultServing, ConcurrentBatchCompletesUnderFaults) {
  fault::FaultInjector injector(serve_plan(0.3, 13));
  core::EdgeConfig config = fast_config().with_shards(4).with_seed(3);
  config.faults = &injector;
  config.retry.max_attempts = 2;
  core::ConcurrentEdge edge(config);

  trace::SyntheticConfig synth;
  synth.min_check_ins = 30;
  synth.max_check_ins = 60;
  const rng::Engine parent(17);
  const auto users = trace::generate_population(parent, synth, 12);
  std::vector<trace::UserTrace> traces;
  for (const trace::SyntheticUser& user : users) traces.push_back(user.trace);

  par::ThreadPool pool(4);
  const core::BatchServeStats stats = edge.serve_trace_batch(traces, pool);
  EXPECT_EQ(stats.users, 12u);
  EXPECT_GT(stats.requests, 0u);
  // Conservation: every request ends in exactly one outcome bucket.
  EXPECT_EQ(stats.requests, stats.served + stats.degraded_cached +
                                stats.degraded_dropped + stats.failed);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.degraded_dropped + stats.served_after_retry, 0u);
  EXPECT_EQ(edge.telemetry().requests, stats.requests);
}

// ------------------------------------------------- ad leg of the system

TEST(FaultSystem, AdPathDegradesWhileTheLocationReportSurvives) {
  fault::FaultPlan plan;
  plan.site(fault::Site::kExchange).probability = 1.0;
  fault::FaultInjector injector(plan);
  core::EdgeConfig config = fast_config().with_seed(4);
  config.faults = &injector;
  config.retry.max_attempts = 2;
  core::EdgePrivLocAd system(config, {});

  const core::ServedAds served = system.on_lba_request(1, {0, 0}, 100);
  EXPECT_TRUE(served.location_released());
  EXPECT_TRUE(served.ad_path_degraded);
  EXPECT_TRUE(served.delivered.empty());
  EXPECT_FALSE(served.status.ok());
  EXPECT_EQ(system.edge().telemetry().adnet_degraded, 1u);
}

TEST(FaultSystem, ServeDropMakesNoAdRequestAtAll) {
  fault::FaultInjector injector(serve_plan(1.0));
  core::EdgeConfig config = fast_config().with_seed(4);
  config.faults = &injector;
  core::EdgePrivLocAd system(config, {});

  const core::ServedAds served = system.on_lba_request(1, {0, 0}, 100);
  EXPECT_FALSE(served.location_released());
  EXPECT_EQ(served.outcome, core::ServeOutcome::kDegradedDropped);
  EXPECT_EQ(served.matched_count, 0u);
  EXPECT_TRUE(served.delivered.empty());
  // The exchange site was never consulted: no location, no bid request.
  EXPECT_EQ(injector.checks(fault::Site::kExchange), 0u);
}

// ------------------------------------------------------------- EdgeConfig

TEST(EdgeConfig, ValidateRejectsOutOfDomainValues) {
  core::EdgeConfig config = fast_config();
  config.shards = 0;
  EXPECT_THROW(config.validate(), util::InvalidArgument);
  config = fast_config();
  config.retry.max_attempts = 0;
  EXPECT_THROW(config.validate(), util::InvalidArgument);
  config = fast_config();
  config.top_match_radius_m = -1.0;
  EXPECT_THROW(config.validate(), util::InvalidArgument);
  EXPECT_NO_THROW(fast_config().validate());
}

TEST(EdgeConfig, FluentCopiesSetOneKnob) {
  const core::EdgeConfig base = fast_config();
  EXPECT_EQ(base.with_seed(9).seed, 9u);
  EXPECT_EQ(base.with_shards(3).shards, 3u);
  EXPECT_EQ(base.with_seed(9).shards, base.shards);
}

}  // namespace
}  // namespace privlocad
