// Tests for the parallel-execution subsystem: the work-stealing ThreadPool,
// the parallel_for / parallel_map helpers, and the determinism contract --
// seed-split workloads must produce byte-identical output at any thread
// count (threads=1 is the serial reference ordering).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "attack/evaluation.hpp"
#include "lppm/planar_laplace.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "trace/synthetic.hpp"
#include "util/status.hpp"
#include "util/validation.hpp"

namespace privlocad {
namespace {

// ------------------------------------------------------------- pool basics

TEST(ThreadPool, ReportsConfiguredThreadCount) {
  par::ThreadPool one(1);
  par::ThreadPool four(4);
  EXPECT_EQ(one.thread_count(), 1u);
  EXPECT_EQ(four.thread_count(), 4u);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(par::ThreadPool(0), util::InvalidArgument);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  par::parallel_for(pool, 0, hits.size(), /*grain=*/7,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleChunkRangesWork) {
  par::ThreadPool pool(4);
  std::atomic<int> calls{0};
  par::parallel_for(pool, 5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  par::parallel_for(pool, 0, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, UnevenTasksStillComplete) {
  // Chunks of wildly different cost exercise the steal path: the worker
  // stuck on the heavy head chunks loses its queued tail to the others.
  par::ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  par::parallel_for(pool, 0, 64, /*grain=*/1, [&](std::size_t i) {
    volatile double burn = 1.0;
    const std::size_t spins = i < 4 ? 200000 : 100;
    for (std::size_t k = 0; k < spins; ++k) burn = burn * 1.0000001;
    sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  par::ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  par::parallel_for(pool, 0, 8, /*grain=*/1, [&](std::size_t) {
    par::parallel_for(pool, 0, 10, /*grain=*/1,
                      [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 80);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  par::ThreadPool pool(4);
  EXPECT_THROW(
      par::parallel_for(pool, 0, 100, /*grain=*/1,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SubmitRunsInlineOnSingleThreadPool) {
  par::ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(HardwareThreads, EnvVariableOverrides) {
  ASSERT_EQ(setenv("PRIVLOCAD_THREADS", "3", 1), 0);
  EXPECT_EQ(par::hardware_threads(), 3u);
  // Malformed overrides fail loudly instead of falling back to hardware.
  for (const char* bad : {"garbage", "0", "3x", "-2"}) {
    ASSERT_EQ(setenv("PRIVLOCAD_THREADS", bad, 1), 0);
    EXPECT_THROW(par::hardware_threads(), util::StatusError) << bad;
  }
  ASSERT_EQ(setenv("PRIVLOCAD_THREADS", "", 1), 0);
  EXPECT_GE(par::hardware_threads(), 1u);  // empty keeps the default
  ASSERT_EQ(unsetenv("PRIVLOCAD_THREADS"), 0);
  EXPECT_GE(par::hardware_threads(), 1u);
}

TEST(DefaultGrain, ReasonableSizes) {
  EXPECT_EQ(par::default_grain(0, 8), 1u);
  EXPECT_EQ(par::default_grain(10, 8), 1u);
  EXPECT_EQ(par::default_grain(3200, 8), 100u);
}

// ------------------------------------------------------------ parallel_map

TEST(ParallelMap, PreservesInputOrder) {
  par::ThreadPool pool(8);
  std::vector<int> items(500);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> squares = par::parallel_map(
      pool, items, [](const int& x, std::size_t) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
}

TEST(ParallelMap, IndexArgumentMatchesSlot) {
  par::ThreadPool pool(8);
  const std::vector<int> items(200, 0);
  const auto indices = par::parallel_map(
      pool, items, [](const int&, std::size_t i) { return i; });
  for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
}

TEST(ParallelMap, EmptyInputYieldsEmptyOutput) {
  par::ThreadPool pool(4);
  const std::vector<int> empty;
  EXPECT_TRUE(par::parallel_map(pool, empty, [](const int& x, std::size_t) {
                return x;
              }).empty());
}

// ----------------------------------------------- determinism: generation

TEST(Determinism, GeneratePopulationIdenticalAcrossThreadCounts) {
  trace::SyntheticConfig config;
  config.min_check_ins = 20;
  config.max_check_ins = 80;
  const rng::Engine parent(77);

  par::ThreadPool serial(1);
  par::ThreadPool parallel(8);
  const auto a = trace::generate_population(serial, parent, config, 48);
  const auto b = trace::generate_population(parallel, parent, config, 48);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u].trace.user_id, b[u].trace.user_id);
    ASSERT_EQ(a[u].trace.check_ins.size(), b[u].trace.check_ins.size());
    for (std::size_t c = 0; c < a[u].trace.check_ins.size(); ++c) {
      // Byte-identical, not approximately equal: same split stream, same
      // arithmetic, independent of scheduling.
      EXPECT_EQ(a[u].trace.check_ins[c].position.x,
                b[u].trace.check_ins[c].position.x);
      EXPECT_EQ(a[u].trace.check_ins[c].position.y,
                b[u].trace.check_ins[c].position.y);
      EXPECT_EQ(a[u].trace.check_ins[c].time, b[u].trace.check_ins[c].time);
    }
    ASSERT_EQ(a[u].truth.top_locations.size(),
              b[u].truth.top_locations.size());
    for (std::size_t k = 0; k < a[u].truth.top_locations.size(); ++k) {
      EXPECT_EQ(a[u].truth.top_locations[k].x, b[u].truth.top_locations[k].x);
      EXPECT_EQ(a[u].truth.top_locations[k].y, b[u].truth.top_locations[k].y);
    }
  }
}

// ------------------------------------------------ determinism: the attack

TEST(Determinism, EvaluatePopulationIdenticalAcrossThreadCounts) {
  trace::SyntheticConfig config;
  config.min_check_ins = 40;
  config.max_check_ins = 200;
  const rng::Engine parent(123);
  const auto population = trace::generate_population(parent, config, 24);

  const lppm::PlanarLaplaceMechanism mech({std::log(4.0), 200.0});
  attack::PopulationAttackProtocol protocol;
  protocol.deobfuscation.trim_radius_m = mech.tail_radius(0.05);
  protocol.deobfuscation.connectivity_threshold_m =
      protocol.deobfuscation.trim_radius_m / 4.0;
  protocol.deobfuscation.top_n = 2;

  const attack::ObservationFn observe =
      [&mech](rng::Engine& e, const trace::SyntheticUser& user) {
        std::vector<geo::Point> observed;
        observed.reserve(user.trace.check_ins.size());
        for (const trace::CheckIn& c : user.trace.check_ins) {
          observed.push_back(mech.obfuscate_one(e, c.position));
        }
        return observed;
      };

  par::ThreadPool serial(1);
  par::ThreadPool parallel(8);
  const auto a =
      attack::evaluate_population(serial, population, protocol, observe);
  const auto b =
      attack::evaluate_population(parallel, population, protocol, observe);

  ASSERT_EQ(a.users(), population.size());
  ASSERT_EQ(a.users(), b.users());
  for (std::size_t rank = 0; rank < 2; ++rank) {
    for (std::size_t t = 0; t < a.thresholds().size(); ++t) {
      EXPECT_EQ(a.rate(rank, t), b.rate(rank, t));
    }
  }
  // Sanity: with l = ln4 at r = 200 m and plenty of check-ins, the attack
  // should recover a decent share of top-1 locations (Fig. 6 shape).
  EXPECT_GT(a.rate(0, 1), 0.2);
}

}  // namespace
}  // namespace privlocad
