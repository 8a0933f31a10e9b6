#include "fault/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "util/validation.hpp"

namespace privlocad::fault {

void RetryPolicy::validate() const {
  util::require(max_attempts >= 1, "retry max_attempts must be >= 1");
  util::require_non_negative(initial_backoff_us, "retry initial_backoff_us");
  util::require_non_negative(max_backoff_us, "retry max_backoff_us");
  util::require(std::isfinite(backoff_multiplier) &&
                    backoff_multiplier >= 1.0,
                "retry backoff_multiplier must be >= 1");
  util::require(std::isfinite(jitter) && jitter >= 0.0 && jitter <= 1.0,
                "retry jitter must lie in [0, 1]");
}

double backoff_delay_us(const RetryPolicy& policy, std::size_t retry,
                        rng::Engine& engine) {
  // Closed-form min(max, initial * multiplier^retry). The obvious
  // multiply-until-capped loop is O(retry) and, worse, never reaches the
  // cap when the delay cannot grow (initial == 0, multiplier == 1, or a
  // multiplier so close to 1 the product creeps): with "retry forever"
  // policies passing retry counts in the billions that loop spins the
  // serving thread instead of sleeping. std::pow saturates to +inf rather
  // than overflowing, and the min() folds the saturation back to the cap,
  // so the delay is exact for small retry counts (integer powers of the
  // multiplier are computed exactly) and safely capped for any count.
  double delay = policy.initial_backoff_us;
  if (retry > 0 && delay > 0.0 && policy.backoff_multiplier > 1.0) {
    // Guarded so 0 * inf (a NaN) cannot be formed; growth >= 1 here.
    const double growth =
        std::pow(policy.backoff_multiplier, static_cast<double>(retry));
    delay = std::min(delay * growth, policy.max_backoff_us);
  }
  delay = std::min(delay, policy.max_backoff_us);
  if (policy.jitter > 0.0) {
    delay *= engine.uniform_in(1.0 - policy.jitter, 1.0 + policy.jitter);
  }
  return delay;
}

util::Status retry_with_backoff(const RetryPolicy& policy,
                                rng::Engine& engine,
                                const std::function<util::Status()>& op) {
  util::Status status = op();
  for (std::size_t retry = 0; !status.ok() && status.transient() &&
                              retry + 1 < policy.max_attempts;
       ++retry) {
    const double delay_us = backoff_delay_us(policy, retry, engine);
    if (delay_us > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(delay_us));
    }
    status = op();
  }
  return status;
}

}  // namespace privlocad::fault
