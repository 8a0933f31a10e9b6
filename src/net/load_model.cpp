#include "net/load_model.hpp"

#include <algorithm>
#include <cmath>

#include "trace/check_in.hpp"
#include "util/validation.hpp"

namespace privlocad::net {

void LoadPlanConfig::validate() const {
  util::require(target_rps > 0.0, "target_rps must be positive");
  util::require(duration_s > 0.0, "duration_s must be positive");
  util::require(users >= 1, "need at least one user");
  util::require(zipf_exponent > 0.0, "zipf_exponent must be positive");
  if (process == ArrivalProcess::kBursty) {
    util::require(burst_factor > 1.0, "burst_factor must exceed 1");
    util::require(burst_fraction > 0.0 && burst_fraction < 1.0,
                  "burst_fraction must lie in (0, 1)");
    util::require(burst_period_s > 0.0, "burst_period_s must be positive");
  }
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  util::require(n >= 1, "zipf needs at least one rank");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // close the CDF despite rounding
}

std::size_t ZipfSampler::sample(rng::Engine& engine) const {
  const double u = engine.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

namespace {

/// Deterministic home location for (seed, user): a point in a ~10 km
/// square, the same scale the trace synthesizers use.
geo::Point home_of(std::uint64_t seed, std::uint64_t user) {
  std::uint64_t state = seed ^ (user * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t hx = rng::splitmix64(state);
  const std::uint64_t hy = rng::splitmix64(state);
  return {static_cast<double>(hx % 10000),
          static_cast<double>(hy % 10000)};
}

}  // namespace

std::vector<TimedRequest> build_open_loop_plan(
    const LoadPlanConfig& config) {
  config.validate();
  rng::Engine arrivals = rng::Engine(config.seed).split(1);
  rng::Engine popularity = rng::Engine(config.seed).split(2);
  rng::Engine jitter = rng::Engine(config.seed).split(3);
  const ZipfSampler zipf(config.users, config.zipf_exponent);

  // Bursty: solve the off rate so the cycle MEAN equals target_rps:
  //   f * (F * r_off) + (1 - f) * r_off = target  =>
  //   r_off = target / (f*F + 1 - f).
  const double off_rate =
      config.process == ArrivalProcess::kBursty
          ? config.target_rps / (config.burst_fraction * config.burst_factor +
                                 1.0 - config.burst_fraction)
          : config.target_rps;
  const double on_rate = off_rate * config.burst_factor;

  std::vector<TimedRequest> plan;
  plan.reserve(static_cast<std::size_t>(config.target_rps *
                                        config.duration_s * 1.25) +
               16);

  double now = 0.0;
  std::uint64_t index = 0;
  while (true) {
    double rate = off_rate;
    if (config.process == ArrivalProcess::kBursty) {
      const double phase = std::fmod(now, config.burst_period_s);
      rate = phase < config.burst_fraction * config.burst_period_s
                 ? on_rate
                 : off_rate;
    }
    now += -std::log(arrivals.uniform_positive()) / rate;
    if (now >= config.duration_s) break;

    const std::uint64_t user =
        static_cast<std::uint64_t>(zipf.sample(popularity)) + 1;
    const geo::Point home = home_of(config.seed, user);

    TimedRequest timed;
    timed.at_s = now;
    timed.request.request_id = index;
    timed.request.user_id = user;
    timed.request.x = home.x + jitter.uniform_in(-50.0, 50.0);
    timed.request.y = home.y + jitter.uniform_in(-50.0, 50.0);
    timed.request.time =
        trace::kStudyStart + static_cast<trace::Timestamp>(index);
    plan.push_back(timed);
    ++index;
  }
  return plan;
}

}  // namespace privlocad::net
