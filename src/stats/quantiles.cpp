#include "stats/quantiles.hpp"

#include <algorithm>
#include <cmath>

#include "util/validation.hpp"

namespace privlocad::stats {

double quantile(std::vector<double> samples, double q) {
  util::require(!samples.empty(), "quantile of empty sample set");
  util::require(q >= 0.0 && q <= 1.0, "quantile level must be in [0, 1]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();

  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = h - std::floor(h);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double lower_bound_at_confidence(std::vector<double> samples, double alpha) {
  util::require_unit_open(alpha, "confidence level alpha");
  return quantile(std::move(samples), 1.0 - alpha);
}

}  // namespace privlocad::stats
