// Deterministic, splittable random engine.
//
// Why not std::mt19937_64 directly: the bench harness runs 100,000-trial
// Monte-Carlo sweeps per parameter point (as the paper does) across many
// independent users, and we want (a) cheap per-user sub-streams that are
// statistically independent and reproducible regardless of evaluation
// order, (b) a small state for copies. xoshiro256++ seeded via SplitMix64
// provides both and passes BigCrush.
//
// The engine satisfies std::uniform_random_bit_generator, so it composes
// with <random> distributions where convenient, but all samplers in this
// library (rng/samplers.hpp: explicit inverse-CDF transforms and the
// ziggurat Gaussian) are written out so results are bit-reproducible
// across standard-library implementations.
#pragma once

#include <array>
#include <cstdint>

namespace privlocad::rng {

/// xoshiro256++ engine with SplitMix64 seeding.
class Engine {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64,
  /// as recommended by the xoshiro authors.
  explicit Engine(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64 random bits.
  result_type operator()();

  /// Derives an independent child engine. Deterministic: the same (parent
  /// seed, stream_id) pair always yields the same child stream. Used to give
  /// every synthetic user / trial its own reproducible randomness.
  Engine split(std::uint64_t stream_id) const;

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  double uniform();

  /// Uniform double in (0, 1]; never returns 0 (safe for log()).
  double uniform_positive();

  /// Uniform double in [lo, hi); requires lo < hi.
  double uniform_in(double lo, double hi);

  /// Uniform integer in [0, n); requires n > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

 private:
  std::array<std::uint64_t, 4> state_;
  std::uint64_t seed_;  // retained so split() can derive children
};

/// SplitMix64 step; exposed for tests and for hashing stream ids.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace privlocad::rng
