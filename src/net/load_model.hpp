// Open-loop load models: arrival processes + user popularity.
//
// The bench needs traffic that looks like an advertising edge's: request
// INSTANTS from a stochastic arrival process pinned to a target rate
// (Poisson for steady load, an on/off modulated Poisson for bursts), and
// request USERS from a Zipf popularity law (a few hot users dominate, a
// long tail trickles -- the regime that stresses per-user shard/worker
// affinity). Everything is generated ahead of time from one seed, so a
// plan is a deterministic, replayable artifact: same config, same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/wire.hpp"
#include "rng/engine.hpp"

namespace privlocad::net {

enum class ArrivalProcess {
  kPoisson,  ///< exponential gaps at the target rate
  kBursty,   ///< on/off modulated Poisson (same mean rate, bursty peaks)
};

struct LoadPlanConfig {
  double target_rps = 1000.0;
  double duration_s = 1.0;
  ArrivalProcess process = ArrivalProcess::kPoisson;

  /// Bursty shape: the on-phase rate is `burst_factor` times the off
  /// rate; `burst_fraction` of each `burst_period_s` cycle is on. The
  /// off/on rates are solved so the MEAN rate stays target_rps.
  double burst_factor = 8.0;
  double burst_fraction = 0.125;
  double burst_period_s = 0.25;

  /// User population and Zipf skew (exponent ~1 = classic web skew).
  std::size_t users = 1000;
  double zipf_exponent = 1.1;

  std::uint64_t seed = 1;

  /// Throws util::InvalidArgument on out-of-domain fields.
  void validate() const;
};

/// One scheduled request: send at `at_s` seconds after the run starts.
struct TimedRequest {
  double at_s = 0.0;
  ServeRequestFrame request{};
};

/// Zipf(s) sampler over ranks [0, n): P(rank k) proportional to
/// 1/(k+1)^s, via a precomputed CDF + binary search. Deterministic given
/// the engine's state.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t sample(rng::Engine& engine) const;

 private:
  std::vector<double> cdf_;
};

/// Builds the full request plan: arrival instants from the configured
/// process, users from Zipf rank, per-user home coordinates derived from
/// (seed, user) with small per-request jitter, timestamps advancing one
/// second per request from the study epoch. Sorted by at_s; request_id
/// is the plan index.
std::vector<TimedRequest> build_open_loop_plan(const LoadPlanConfig& config);

}  // namespace privlocad::net
