#include "fault/fault.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"
#include "rng/engine.hpp"
#include "util/strings.hpp"

namespace privlocad::fault {
namespace {

constexpr std::array<const char*, kSiteCount> kSiteNames = {"exchange",
                                                             "serve"};

/// Per-site salts for schedule_uniform. Fixed values, not enum indices:
/// a recorded seed must keep replaying the same fault schedule when sites
/// are added or removed (these were the sites' original indices).
constexpr std::array<std::size_t, kSiteCount> kScheduleSalts = {2, 3};

/// Deterministic uniform in [0, 1) for arrival `n` at the site salted
/// `salt`: two SplitMix64 rounds over the mixed (seed, salt, n) word give
/// full avalanche, so per-site streams are independent and order-free.
double schedule_uniform(std::uint64_t seed, std::size_t salt,
                        std::uint64_t n) {
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  state ^= n * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL;
  rng::splitmix64(state);
  const std::uint64_t bits = rng::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

util::Status parse_site_entry(FaultPlan& plan, const std::string& entry) {
  const auto colon = entry.find(':');
  if (colon == std::string::npos) {
    return util::Status::parse_error("fault spec entry '" + entry +
                                     "' is not seed=N or site:k=v[,k=v]");
  }
  const std::string name(util::trim(entry.substr(0, colon)));
  const std::optional<Site> site = site_from_name(name);
  if (!site) {
    return util::Status::parse_error("unknown fault site '" + name + "'");
  }
  SiteSpec& spec = plan.site(*site);
  for (const std::string& kv_raw :
       util::split(entry.substr(colon + 1), ',')) {
    const std::string kv(util::trim(kv_raw));
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      return util::Status::parse_error("fault spec option '" + kv +
                                       "' is not key=value");
    }
    const std::string key(util::trim(kv.substr(0, eq)));
    const std::string value(util::trim(kv.substr(eq + 1)));
    try {
      if (key == "p" || key == "probability") {
        spec.probability = util::parse_double(value);
        if (!(spec.probability >= 0.0 && spec.probability <= 1.0)) {
          return util::Status::parse_error(
              "fault probability must be in [0, 1], got " + value);
        }
      } else if (key == "latency_us") {
        // inf would reach sleep_for(inf); nan would silently mean none.
        spec.latency_us = util::parse_double(value);
        if (!(std::isfinite(spec.latency_us) && spec.latency_us >= 0.0)) {
          return util::Status::parse_error(
              "fault spec entry '" + entry +
              "': latency_us must be a finite number >= 0, got " + value);
        }
      } else if (key == "code") {
        if (value == "unavailable") {
          spec.code = util::ErrorCode::kUnavailable;
        } else if (value == "timeout") {
          spec.code = util::ErrorCode::kTimeout;
        } else if (value == "resource_exhausted") {
          spec.code = util::ErrorCode::kResourceExhausted;
        } else {
          return util::Status::parse_error(
              "fault code must be unavailable | timeout | "
              "resource_exhausted, got '" +
              value + "'");
        }
      } else {
        return util::Status::parse_error("unknown fault spec key '" + key +
                                         "'");
      }
    } catch (const util::InvalidArgument& error) {
      return util::Status::parse_error("fault spec option '" + kv +
                                       "': " + error.what());
    }
  }
  return util::Status();
}

}  // namespace

const char* site_name(Site site) {
  return kSiteNames[static_cast<std::size_t>(site)];
}

std::optional<Site> site_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) return static_cast<Site>(i);
  }
  return std::nullopt;
}

bool FaultPlan::any() const {
  for (const SiteSpec& spec : sites) {
    if (spec.probability > 0.0) return true;
  }
  return false;
}

util::Result<FaultPlan> FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& entry_raw : util::split(spec, ';')) {
    const std::string entry(util::trim(entry_raw));
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      // A negative seed must not wrap to a huge unsigned one.
      const std::optional<long long> seed = util::parse_int_in(
          entry.substr(5), 0, std::numeric_limits<long long>::max());
      if (!seed) {
        return util::Status::parse_error(
            "fault spec entry '" + entry +
            "': seed must be a non-negative integer");
      }
      plan.seed = static_cast<std::uint64_t>(*seed);
      continue;
    }
    if (const util::Status status = parse_site_entry(plan, entry);
        !status.ok()) {
      return status;
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* spec = std::getenv("PRIVLOCAD_FAULTS");
  if (spec == nullptr || *spec == '\0') return FaultPlan{};
  util::Result<FaultPlan> plan = FaultPlan::parse(spec);
  if (!plan.ok()) {
    throw util::StatusError(util::Status::parse_error(
        "PRIVLOCAD_FAULTS: " + plan.status().message()));
  }
  return *std::move(plan);
}

std::string FaultPlan::summary() const {
  if (!any()) return "faults: disabled";
  std::string out = "faults: seed=" + std::to_string(seed);
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (sites[i].probability <= 0.0) continue;
    out += ", " + std::string(kSiteNames[i]) + " p=" +
           util::format_double(sites[i].probability, 2) + " (" +
           util::error_code_name(sites[i].code) + ")";
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : enabled_(plan.any()), plan_(plan) {}

util::Status FaultInjector::check(Site site) noexcept {
  if (!enabled_) return util::Status();
  const auto index = static_cast<std::size_t>(site);
  SiteState& state = state_[index];
  state.checks.fetch_add(1, std::memory_order_relaxed);
  const SiteSpec& spec = plan_.sites[index];
  if (spec.probability <= 0.0) return util::Status();
  const std::uint64_t n =
      state.arrivals.fetch_add(1, std::memory_order_relaxed);
  if (schedule_uniform(plan_.seed, kScheduleSalts[index], n) >=
      spec.probability) {
    return util::Status();
  }
  state.injected.fetch_add(1, std::memory_order_relaxed);
  if (spec.latency_us > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(spec.latency_us));
  }
  return util::Status(spec.code, std::string("injected fault at ") +
                                     site_name(site) + " (arrival " +
                                     std::to_string(n) + ")");
}

std::uint64_t FaultInjector::checks(Site site) const noexcept {
  return state_[static_cast<std::size_t>(site)].checks.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(Site site) const noexcept {
  return state_[static_cast<std::size_t>(site)].injected.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const noexcept {
  std::uint64_t total = 0;
  for (const SiteState& state : state_) {
    total += state.injected.load(std::memory_order_relaxed);
  }
  return total;
}

void FaultInjector::publish(obs::MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    const std::string prefix = std::string("fault.") + kSiteNames[i];
    registry.gauge(prefix + ".checks")
        .set(static_cast<double>(checks(static_cast<Site>(i))));
    registry.gauge(prefix + ".injected")
        .set(static_cast<double>(injected(static_cast<Site>(i))));
  }
  registry.gauge("fault.injected_total")
      .set(static_cast<double>(injected_total()));
}

FaultInjector& FaultInjector::global() {
  static FaultInjector instance(FaultPlan::from_env());
  return instance;
}

}  // namespace privlocad::fault
