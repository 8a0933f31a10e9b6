// Capped exponential backoff with jitter, over the Status taxonomy.
//
// The policy for the one remote call the edge makes: the ad-network round
// trip of EdgePrivLocAd (Site::kExchange). Attempt, and on a TRANSIENT
// status (util::is_transient -- unavailable/timeout/resource exhausted)
// wait delay_i = min(max, initial * multiplier^i) scaled by a seeded
// jitter factor, then retry, up to max_attempts total attempts.
// Non-transient statuses (parse errors, invalid arguments) return
// immediately: retrying corrupt input burns the deadline and cannot
// succeed. Jitter draws from the caller's rng::Engine, so a fixed seed
// reproduces the exact backoff sequence -- the same determinism contract
// the rest of the repo keeps.
#pragma once

#include <cstddef>
#include <functional>

#include "rng/engine.hpp"
#include "util/status.hpp"

namespace privlocad::fault {

/// Backoff parameters; defaults suit in-process stores (tens of
/// microseconds) rather than network RPCs -- tune deadline-style waits up.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retrying.
  std::size_t max_attempts = 3;

  double initial_backoff_us = 50.0;
  double backoff_multiplier = 2.0;
  double max_backoff_us = 5000.0;

  /// Each delay is scaled by a uniform factor in [1 - jitter, 1 + jitter]
  /// to decorrelate retry storms; must lie in [0, 1].
  double jitter = 0.5;

  /// Throws util::InvalidArgument on out-of-domain parameters.
  void validate() const;
};

/// The jittered delay before retry number `retry` (0-based), in
/// microseconds: min(max, initial * multiplier^retry) scaled by the
/// jitter factor. Computed in closed form, so it is O(1) and saturates at
/// max_backoff_us for ANY retry count -- a SIZE_MAX retry index neither
/// overflows nor spins. Consumes one engine draw iff jitter > 0.
double backoff_delay_us(const RetryPolicy& policy, std::size_t retry,
                        rng::Engine& engine);

/// Runs `op` under `policy`, sleeping backoff_delay_us between attempts.
/// Retries only transient failures; returns the final status.
util::Status retry_with_backoff(const RetryPolicy& policy,
                                rng::Engine& engine,
                                const std::function<util::Status()>& op);

}  // namespace privlocad::fault
