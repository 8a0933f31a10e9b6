// Deterministic fault injection for the serving surface.
//
// The paper's privacy argument (Thm. 2, Alg. 4) only holds if the edge
// stands between the user's raw top locations and the ad network on EVERY
// request -- including the ones where the obfuscation inputs are down or
// the exchange times out. This module makes those failure seams testable:
// a FaultPlan assigns each injection site (exchange, edge serving) a
// seeded probability/latency/error schedule, and a FaultInjector replays
// that schedule deterministically -- the i-th check at a site fires or not
// as a pure function of (plan seed, site, i), so a fixed seed reproduces
// the exact fault mix and therefore the exact serving outcomes, across runs
// and independently of the other sites.
//
// Cost model: injection is OFF by default. A disabled injector's check()
// is an inline branch on one bool -- no atomics, no RNG -- so the serving
// hot path pays nothing when faults are not requested. Enable globally via
// the PRIVLOCAD_FAULTS environment variable (see FaultPlan::parse for the
// grammar) or per component by handing a FaultInjector* through the
// config/API parameter that every wired site exposes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/status.hpp"

namespace privlocad::obs {
class MetricsRegistry;
}

namespace privlocad::fault {

/// Every operation boundary faults can be injected into.
enum class Site : std::size_t {
  kExchange = 0,  ///< EdgePrivLocAd's ad leg: the ad-network round trip
  kServe,         ///< edge obfuscation-input acquisition in serve()
};
inline constexpr std::size_t kSiteCount = 2;

/// Stable lowercase name ("exchange", "serve") used by the spec grammar,
/// metric names, and error messages.
const char* site_name(Site site);

/// Inverse of site_name; nullopt for an unknown name.
std::optional<Site> site_from_name(const std::string& name);

/// One site's schedule parameters.
struct SiteSpec {
  /// Probability that one check() at this site fails, in [0, 1].
  double probability = 0.0;

  /// Stall applied to a firing check() before it reports the error,
  /// modelling a slow failure (timeout-like) rather than a fast one.
  double latency_us = 0.0;

  /// The error a firing check() reports. Must be a transient code --
  /// injected faults model backend hiccups, not corrupt input.
  util::ErrorCode code = util::ErrorCode::kUnavailable;
};

/// A complete seeded fault schedule over all sites.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::array<SiteSpec, kSiteCount> sites{};

  SiteSpec& site(Site s) { return sites[static_cast<std::size_t>(s)]; }
  const SiteSpec& site(Site s) const {
    return sites[static_cast<std::size_t>(s)];
  }

  /// True when any site has a non-zero probability.
  bool any() const;

  /// Parses a spec string. Grammar (';'-separated entries):
  ///   seed=<uint>
  ///   <site>:p=<prob>[,latency_us=<us>][,code=<name>]
  /// where <uint> is a non-negative integer below 2^63, <prob> lies in
  /// [0, 1], <us> is finite and >= 0, <site> is exchange | serve and
  /// <name> is unavailable | timeout | resource_exhausted. Example:
  ///   "seed=42;serve:p=0.3;exchange:p=0.25,latency_us=50,code=timeout"
  /// Returns kParseError with the offending entry on a malformed spec.
  static util::Result<FaultPlan> parse(const std::string& spec);

  /// The plan in $PRIVLOCAD_FAULTS; a disabled (all-zero) plan when the
  /// variable is unset or empty. Throws StatusError on a malformed spec:
  /// a typo must fail the run loudly, not silently disable the fault mix
  /// an experiment claims to have survived.
  static FaultPlan from_env();

  /// One-line human-readable summary ("faults: serve p=0.30, ...").
  std::string summary() const;
};

/// Thread-safe deterministic injector over one FaultPlan.
///
/// Each site keeps an atomic arrival counter; the decision for arrival i
/// hashes (seed, site, i) through SplitMix64, so the schedule is a pure
/// function of the plan and the per-site arrival order. Single-threaded
/// drivers therefore see bit-identical fault sequences across runs;
/// concurrent drivers see an identical multiset of decisions.
class FaultInjector {
 public:
  /// A disabled injector: check() always passes, costs one branch.
  FaultInjector() = default;

  explicit FaultInjector(FaultPlan plan);

  bool enabled() const noexcept { return enabled_; }

  /// Draws the site's next scheduled decision. Returns ok() when no fault
  /// fires; otherwise stalls for the site's latency and returns its error.
  util::Status check(Site site) noexcept;

  /// Decisions drawn / faults fired at `site` since construction.
  std::uint64_t checks(Site site) const noexcept;
  std::uint64_t injected(Site site) const noexcept;
  std::uint64_t injected_total() const noexcept;

  const FaultPlan& plan() const { return plan_; }

  /// Publishes the per-site tallies as gauges (`fault.<site>.injected`,
  /// `fault.<site>.checks`) plus `fault.injected_total`. Gauges, not
  /// counters: publishing is an idempotent snapshot, safe to repeat.
  void publish(obs::MetricsRegistry& registry) const;

  /// Process-wide injector, configured from PRIVLOCAD_FAULTS at first
  /// use. Components default to this one when no injector is passed.
  static FaultInjector& global();

 private:
  struct alignas(64) SiteState {
    std::atomic<std::uint64_t> arrivals{0};
    std::atomic<std::uint64_t> checks{0};
    std::atomic<std::uint64_t> injected{0};
  };

  bool enabled_ = false;
  FaultPlan plan_{};
  std::array<SiteState, kSiteCount> state_{};
};

}  // namespace privlocad::fault
