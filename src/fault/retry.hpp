// Capped exponential backoff with jitter, over the Status taxonomy.
//
// One policy shape for every fallible backend call (the ad-network round
// trip, obfuscation-input acquisition): attempt, and on a
// TRANSIENT status (util::is_transient -- unavailable/timeout/resource
// exhausted) wait delay_i = min(max, initial * multiplier^i) scaled by a
// seeded jitter factor, then retry, up to max_attempts total attempts.
// Non-transient statuses (parse errors, invalid arguments) return
// immediately: retrying corrupt input burns the deadline and cannot
// succeed. Jitter draws from the caller's rng::Engine, so a fixed seed
// reproduces the exact backoff (and therefore downstream random-stream)
// sequence -- the same determinism contract the rest of the repo keeps.
#pragma once

#include <chrono>
#include <cstddef>
#include <thread>
#include <type_traits>
#include <utility>

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

namespace detail {
inline bool outcome_ok(const util::Status& status) { return status.ok(); }
inline util::Status outcome_status(const util::Status& status) {
  return status;
}
template <typename T>
bool outcome_ok(const util::Result<T>& result) {
  return result.ok();
}
template <typename T>
util::Status outcome_status(const util::Result<T>& result) {
  return result.status();
}
}  // namespace detail

/// Runs `op` (returning util::Status or util::Result<T>) under `policy`.
/// Retries only transient failures; returns the final outcome. When
/// `retries_out` is non-null it receives the number of retries performed
/// (0 = first attempt settled it).
template <typename Fn>
auto retry_with_backoff(const RetryPolicy& policy, rng::Engine& engine,
                        Fn&& op, std::size_t* retries_out = nullptr)
    -> std::invoke_result_t<Fn> {
  auto outcome = op();
  std::size_t retries = 0;
  while (!detail::outcome_ok(outcome) &&
         detail::outcome_status(outcome).transient() &&
         retries + 1 < policy.max_attempts) {
    const double delay_us = backoff_delay_us(policy, retries, engine);
    if (delay_us > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(delay_us));
    }
    ++retries;
    outcome = op();
  }
  if (retries_out != nullptr) *retries_out = retries;
  return outcome;
}

}  // namespace privlocad::fault
