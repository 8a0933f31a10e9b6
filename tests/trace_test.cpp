// Tests for the trace module: check-in utilities, the synthetic generator's
// calibration, and CSV round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "attack/profile.hpp"
#include "rng/engine.hpp"
#include "stats/quantiles.hpp"
#include "stats/running_stats.hpp"
#include "trace/check_in.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/csv.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/validation.hpp"

#include "oracles.hpp"

namespace privlocad::trace {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig c;
  c.max_check_ins = 500;  // keep unit tests fast
  return c;
}

// ----------------------------------------------------------- check_in ops

TEST(CheckIn, SliceByTimeKeepsHalfOpenWindow) {
  UserTrace trace;
  trace.user_id = 7;
  trace.check_ins = {{{0, 0}, 100}, {{1, 1}, 200}, {{2, 2}, 300}};
  const UserTrace sliced = slice_by_time(trace, 100, 300);
  ASSERT_EQ(sliced.check_ins.size(), 2u);
  EXPECT_EQ(sliced.user_id, 7u);
  EXPECT_EQ(sliced.check_ins[0].time, 100);
  EXPECT_EQ(sliced.check_ins[1].time, 200);
}

TEST(CheckIn, PositionsExtractsInOrder) {
  UserTrace trace;
  trace.check_ins = {{{1, 2}, 0}, {{3, 4}, 1}};
  const auto pos = positions(trace);
  ASSERT_EQ(pos.size(), 2u);
  EXPECT_EQ(pos[1], (geo::Point{3, 4}));
}

TEST(CheckIn, StudyWindowIsTwoYears) {
  const double days =
      static_cast<double>(kStudyEnd - kStudyStart) / kSecondsPerDay;
  EXPECT_NEAR(days, 730.0, 1.0);
}

// -------------------------------------------------------------- generator

TEST(Synthetic, DeterministicPerUserId) {
  const rng::Engine parent(42);
  const SyntheticConfig config = small_config();
  const SyntheticUser a = generate_user(parent, config, 17);
  const SyntheticUser b = generate_user(parent, config, 17);
  ASSERT_EQ(a.trace.check_ins.size(), b.trace.check_ins.size());
  for (std::size_t i = 0; i < a.trace.check_ins.size(); ++i) {
    EXPECT_EQ(a.trace.check_ins[i].position, b.trace.check_ins[i].position);
    EXPECT_EQ(a.trace.check_ins[i].time, b.trace.check_ins[i].time);
  }
}

TEST(Synthetic, DifferentUsersDiffer) {
  const rng::Engine parent(42);
  const SyntheticConfig config = small_config();
  const SyntheticUser a = generate_user(parent, config, 1);
  const SyntheticUser b = generate_user(parent, config, 2);
  EXPECT_NE(a.trace.check_ins.size(), 0u);
  const bool same_first =
      !a.trace.check_ins.empty() && !b.trace.check_ins.empty() &&
      a.trace.check_ins[0].position == b.trace.check_ins[0].position;
  EXPECT_FALSE(same_first);
}

TEST(Synthetic, CheckInCountWithinConfiguredRange) {
  const rng::Engine parent(1);
  SyntheticConfig config;
  config.min_check_ins = 20;
  config.max_check_ins = 11435;
  for (std::uint64_t id = 0; id < 30; ++id) {
    const SyntheticUser u = generate_user(parent, config, id);
    EXPECT_GE(u.trace.check_ins.size(), 20u);
    EXPECT_LE(u.trace.check_ins.size(), 11435u);
  }
}

TEST(Synthetic, TimestampsSortedAndInWindow) {
  const rng::Engine parent(2);
  const SyntheticUser u = generate_user(parent, small_config(), 5);
  Timestamp last = kStudyStart;
  for (const CheckIn& c : u.trace.check_ins) {
    EXPECT_GE(c.time, last);
    EXPECT_LT(c.time, kStudyEnd);
    last = c.time;
  }
}

TEST(Synthetic, TruthWeightsAreOrderedAndSubUnit) {
  const rng::Engine parent(3);
  const SyntheticUser u = generate_user(parent, small_config(), 11);
  ASSERT_FALSE(u.truth.top_locations.empty());
  double sum = 0.0;
  double prev = 1.0;
  for (const double w : u.truth.weights) {
    EXPECT_LE(w, prev + 1e-12);
    EXPECT_GT(w, 0.0);
    prev = w;
    sum += w;
  }
  EXPECT_LE(sum, 1.0 + 1e-12);
}

TEST(Synthetic, Top1DominatesNomadicNoise) {
  const rng::Engine parent(4);
  SyntheticConfig config = small_config();
  config.min_check_ins = 300;  // enough mass for a stable estimate
  const SyntheticUser u = generate_user(parent, config, 23);
  // Top-1 should hold a clear plurality of all check-ins.
  EXPECT_GT(u.truth.weights.front(), 0.3);
}

TEST(Synthetic, CheckInsClusterAroundTruth) {
  const rng::Engine parent(5);
  SyntheticConfig config = small_config();
  config.min_check_ins = 200;
  const SyntheticUser u = generate_user(parent, config, 31);
  // Count check-ins within 50 m of the true top-1: should be roughly the
  // top-1 weight (jitter sigma 15 m keeps ~99% within 50 m).
  std::size_t close = 0;
  for (const CheckIn& c : u.trace.check_ins) {
    if (geo::distance(c.position, u.truth.top_locations.front()) < 50.0) {
      ++close;
    }
  }
  const double fraction = static_cast<double>(close) /
                          static_cast<double>(u.trace.check_ins.size());
  EXPECT_NEAR(fraction, u.truth.weights.front(), 0.05);
}

TEST(Synthetic, AnchorsRespectMinimumSeparation) {
  const rng::Engine parent(6);
  SyntheticConfig config = small_config();
  config.min_top_separation_m = 2000.0;
  for (std::uint64_t id = 0; id < 10; ++id) {
    const SyntheticUser u = generate_user(parent, config, id);
    const auto& tops = u.truth.top_locations;
    for (std::size_t i = 0; i < tops.size(); ++i) {
      for (std::size_t j = i + 1; j < tops.size(); ++j) {
        EXPECT_GE(geo::distance(tops[i], tops[j]), 2000.0);
      }
    }
  }
}

TEST(Synthetic, PopulationEntropyMatchesPaperShape) {
  // Paper Fig. 3: 88.8% of users have location entropy < 2 nats. The
  // synthetic population must land in that regime (wide tolerance; this
  // guards calibration, not the exact fraction).
  const rng::Engine parent(7);
  SyntheticConfig config;
  config.min_check_ins = 50;
  config.max_check_ins = 2000;
  const auto users = generate_population(parent, config, 60);
  std::size_t low_entropy = 0;
  for (const SyntheticUser& u : users) {
    const auto profile = attack::build_profile(u.trace);
    if (profile.entropy() < 2.0) ++low_entropy;
  }
  const double fraction =
      static_cast<double>(low_entropy) / static_cast<double>(users.size());
  EXPECT_GT(fraction, 0.7);
}

TEST(Synthetic, PopulationIsStableUnderSubsetting) {
  const rng::Engine parent(8);
  const SyntheticConfig config = small_config();
  const auto ten = generate_population(parent, config, 10);
  const auto five = generate_population(parent, config, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(ten[i].trace.check_ins.size(), five[i].trace.check_ins.size());
    EXPECT_EQ(ten[i].trace.check_ins[0].position,
              five[i].trace.check_ins[0].position);
  }
}

TEST(Synthetic, CaseStudyUserMatchesPaperCounts) {
  const rng::Engine parent(9);
  const SyntheticUser u = generate_case_study_user(parent, small_config());
  // Paper Fig. 4 victim: 1,969 check-ins, 1,628 at the top-1 location.
  EXPECT_EQ(u.trace.check_ins.size(), 1969u);
  std::size_t top1 = 0;
  for (const CheckIn& c : u.trace.check_ins) {
    if (geo::distance(c.position, u.truth.top_locations.front()) < 100.0) {
      ++top1;
    }
  }
  EXPECT_NEAR(static_cast<double>(top1), 1628.0, 20.0);
  // One-year span.
  const Timestamp span =
      u.trace.check_ins.back().time - u.trace.check_ins.front().time;
  EXPECT_LE(span, 366 * kSecondsPerDay);
}

TEST(SyntheticMarkov, DwellSessionsCreateBursts) {
  SyntheticConfig config = small_config();
  config.min_check_ins = 400;
  config.temporal_model = SyntheticConfig::TemporalModel::kMarkovDwell;
  config.mean_dwell_check_ins = 10.0;
  const rng::Engine parent(21);
  const SyntheticUser user = generate_user(parent, config, 3);

  // Consecutive check-ins repeat their location class far more often than
  // under iid sampling: measure the fraction of consecutive pairs within
  // 100 m of each other.
  std::size_t sticky = 0;
  const auto& c = user.trace.check_ins;
  for (std::size_t i = 1; i < c.size(); ++i) {
    if (geo::distance(c[i].position, c[i - 1].position) < 100.0) ++sticky;
  }
  const double sticky_fraction =
      static_cast<double>(sticky) / static_cast<double>(c.size() - 1);
  // With mean dwell 10, ~90% of transitions stay in-session; iid traces
  // only repeat when two independent draws hit the same anchor (< ~75%
  // for a typical weight profile, and sessions also pin nomadic spots).
  EXPECT_GT(sticky_fraction, 0.80);
}

TEST(SyntheticMarkov, MarginalFrequenciesMatchIidModel) {
  // The dwell model must not change WHERE the user is overall, only the
  // ordering: top-1 weight stays comparable to the iid run.
  SyntheticConfig iid = small_config();
  iid.min_check_ins = 400;
  SyntheticConfig markov = iid;
  markov.temporal_model = SyntheticConfig::TemporalModel::kMarkovDwell;

  const rng::Engine parent(22);
  const SyntheticUser a = generate_user(parent, iid, 5);
  const SyntheticUser b = generate_user(parent, markov, 5);
  ASSERT_FALSE(a.truth.weights.empty());
  ASSERT_FALSE(b.truth.weights.empty());
  EXPECT_NEAR(a.truth.weights.front(), b.truth.weights.front(), 0.15);
}

TEST(SyntheticMarkov, ProfilingStillRecoversTruth) {
  SyntheticConfig config = small_config();
  config.min_check_ins = 400;
  config.temporal_model = SyntheticConfig::TemporalModel::kMarkovDwell;
  const rng::Engine parent(23);
  const SyntheticUser user = generate_user(parent, config, 7);
  const auto profile = attack::build_profile(user.trace);
  ASSERT_FALSE(profile.empty());
  EXPECT_LT(geo::distance(profile.top(0).location,
                          user.truth.top_locations.front()),
            25.0);
}

TEST(Synthetic, InvalidConfigRejected) {
  const rng::Engine parent(10);
  SyntheticConfig bad = small_config();
  bad.nomadic_fraction = 1.0;
  EXPECT_THROW(generate_user(parent, bad, 0), util::InvalidArgument);
  bad = small_config();
  bad.min_check_ins = 100;
  bad.max_check_ins = 50;
  EXPECT_THROW(generate_user(parent, bad, 0), util::InvalidArgument);
  bad = small_config();
  bad.window_start = bad.window_end;
  EXPECT_THROW(generate_user(parent, bad, 0), util::InvalidArgument);
}

TEST(Synthetic, CheckInCountsAreHeavyTailed) {
  // Log-uniform counts: the median across users should sit near the
  // geometric mean of the range, far below the arithmetic midpoint.
  const rng::Engine parent(31);
  SyntheticConfig config;
  config.min_check_ins = 20;
  config.max_check_ins = 11435;
  std::vector<double> counts;
  for (std::uint64_t id = 0; id < 120; ++id) {
    counts.push_back(static_cast<double>(
        generate_user(parent, config, id).trace.check_ins.size()));
  }
  const double median = stats::quantile(counts, 0.5);
  const double geometric_mean = std::sqrt(20.0 * 11435.0);  // ~478
  EXPECT_GT(median, geometric_mean / 3.0);
  EXPECT_LT(median, geometric_mean * 3.0);
  EXPECT_LT(median, (20.0 + 11435.0) / 2.0 / 2.0);  // << midpoint
}

TEST(CheckIn, SliceOfEmptyTraceIsEmpty) {
  UserTrace empty;
  empty.user_id = 3;
  const UserTrace sliced = slice_by_time(empty, 0, 100);
  EXPECT_TRUE(sliced.check_ins.empty());
  EXPECT_EQ(sliced.user_id, 3u);
}

// ------------------------------------------------------------------- IO

TEST(TraceIo, RoundTripPreservesData) {
  const rng::Engine parent(11);
  const auto users = generate_population(parent, small_config(), 3);
  std::vector<UserTrace> traces;
  for (const SyntheticUser& u : users) traces.push_back(u.trace);

  std::ostringstream out;
  write_traces(out, traces);
  std::istringstream in(out.str());
  const auto loaded = read_traces(in);

  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    ASSERT_EQ(loaded[i].check_ins.size(), traces[i].check_ins.size());
    EXPECT_EQ(loaded[i].user_id, traces[i].user_id);
    for (std::size_t j = 0; j < traces[i].check_ins.size(); ++j) {
      EXPECT_NEAR(loaded[i].check_ins[j].position.x,
                  traces[i].check_ins[j].position.x, 1e-3);
      EXPECT_EQ(loaded[i].check_ins[j].time, traces[i].check_ins[j].time);
    }
  }
}

TEST(TraceIo, GeoExportStaysInStudyBoxForCenteredTraces) {
  UserTrace trace;
  trace.user_id = 1;
  trace.check_ins = {{{0, 0}, 0}, {{1000, -1000}, 1}};
  std::ostringstream out;
  write_traces_geo(out, {trace}, geo::shanghai_projection());
  std::istringstream in(out.str());
  const auto table = util::read_csv(in);
  ASSERT_EQ(table.rows.size(), 2u);
  const double lat = util::parse_double(table.rows[0][table.column("lat_deg")]);
  const double lon = util::parse_double(table.rows[0][table.column("lon_deg")]);
  EXPECT_TRUE(oracles::shanghai_geo_box().contains({lat, lon}));
}

TEST(TraceIo, MissingFilesThrow) {
  EXPECT_THROW(read_traces_file("/nonexistent/t.csv"), std::runtime_error);
}

TEST(TraceIo, CheckInsAreSortedByTimestampAfterLoad) {
  // Regression: rows landed in file order, so an out-of-order export made
  // profile windows and edge serving (which assume time-ordered traces)
  // operate on a scrambled timeline.
  std::istringstream in(
      "user_id,x_m,y_m,timestamp\n"
      "7,3.0,3.0,300\n"
      "7,1.0,1.0,100\n"
      "7,2.0,2.0,200\n");
  const auto traces = read_traces(in);
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].check_ins.size(), 3u);
  EXPECT_EQ(traces[0].check_ins[0].time, 100);
  EXPECT_EQ(traces[0].check_ins[1].time, 200);
  EXPECT_EQ(traces[0].check_ins[2].time, 300);
  EXPECT_NEAR(traces[0].check_ins[0].position.x, 1.0, 1e-9);
}

TEST(TraceIo, EqualTimestampsKeepFileOrder) {
  std::istringstream in(
      "user_id,x_m,y_m,timestamp\n"
      "1,10.0,0.0,50\n"
      "1,20.0,0.0,50\n");
  const auto traces = read_traces(in);
  ASSERT_EQ(traces[0].check_ins.size(), 2u);
  EXPECT_NEAR(traces[0].check_ins[0].position.x, 10.0, 1e-9);
  EXPECT_NEAR(traces[0].check_ins[1].position.x, 20.0, 1e-9);
}

TEST(TraceIo, MalformedTimestampNamesTheRow) {
  std::istringstream in(
      "user_id,x_m,y_m,timestamp\n"
      "1,0.0,0.0,0\n"
      "1,1.0,1.0,not-a-time\n");
  try {
    read_traces(in);
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trace row 2"), std::string::npos);
    EXPECT_NE(what.find("not-a-time"), std::string::npos);
  }
}

TEST(TraceIo, NegativeTimestampRejected) {
  std::istringstream in(
      "user_id,x_m,y_m,timestamp\n"
      "1,0.0,0.0,-5\n");
  EXPECT_THROW(read_traces(in), util::InvalidArgument);
}

TEST(TraceIo, MalformedUserIdAndCoordinatesNameTheRow) {
  // Without these checks "-1" loaded as user 2^64 - 1, "abc" threw a
  // context-free parse error, and nan / inf coordinates loaded as-is.
  struct Case {
    const char* row;
    const char* field;
  };
  for (const Case& c : {Case{"-1,0.0,0.0,5", "user_id '-1'"},
                        Case{"abc,0.0,0.0,5", "user_id 'abc'"},
                        Case{"1,nan,0.0,5", "x_m 'nan'"},
                        Case{"1,0.0,inf,5", "y_m 'inf'"},
                        Case{"1,0.0,1e999,5", "y_m '1e999'"}}) {
    std::istringstream in(std::string("user_id,x_m,y_m,timestamp\n"
                                      "1,0.0,0.0,0\n") +
                          c.row + "\n");
    try {
      read_traces(in);
      ADD_FAILURE() << "expected ParseError for " << c.row;
    } catch (const util::ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trace row 2"), std::string::npos) << what;
      EXPECT_NE(what.find(c.field), std::string::npos) << what;
      EXPECT_EQ(e.line(), 3u) << what;
    }
  }
}

}  // namespace
}  // namespace privlocad::trace
