#include "reference.hpp"

#include <time.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace privlocad::edgebench {
namespace {

constexpr int kSteps = 32000;
constexpr std::size_t kTableSize = 2048;  // 16 KiB of uint64

double thread_cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Read at run time so the compiler cannot fold the kernel away.
volatile std::uint64_t g_seed = 0x2545F4914F6CDD1DULL;
volatile double g_sink = 0.0;

}  // namespace

double reference_pass_s() {
  thread_local std::array<std::uint64_t, kTableSize> table{};
  const std::uint64_t seed = g_seed;
  for (std::size_t i = 0; i < kTableSize; ++i) table[i] = seed ^ i;

  const double start = thread_cpu_s();
  double acc[4] = {1.0, 2.0, 3.0, 4.0};
  std::uint64_t h[4] = {seed, seed + 1, seed + 2, seed + 3};
  for (int step = 0; step < kSteps; ++step) {
    for (int j = 0; j < 4; ++j) {
      acc[j] += std::sin(acc[j] * 1e-3) + std::log(1.0 + acc[j] * 1e-6);
      h[j] = h[j] * 0x9E3779B97F4A7C15ULL + table[(h[j] >> 40) % kTableSize];
      table[(h[j] >> 20) % kTableSize] ^= h[j];
      if ((h[j] & 1) != 0) acc[j] *= 0.999;
    }
  }
  const double elapsed = thread_cpu_s() - start;
  g_sink = acc[0] + acc[1] + acc[2] + acc[3] +
           static_cast<double>(h[0] ^ h[1] ^ h[2] ^ h[3]);
  return elapsed;
}

double reference_s(std::size_t threads) {
  std::vector<double> passes(threads, 0.0);
  {
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < threads; ++t) {
      helpers.emplace_back([&passes, t] { passes[t] = reference_pass_s(); });
    }
    passes[0] = reference_pass_s();
  }
  double sum = 0.0;
  for (const double pass : passes) sum += pass;
  return sum / static_cast<double>(threads);
}

}  // namespace privlocad::edgebench
