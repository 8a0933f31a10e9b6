#include "core/output_selection.hpp"

#include <cmath>

#include "simd/kernels.hpp"
#include "util/validation.hpp"

namespace privlocad::core {

namespace {

/// Centroid of an SoA span, bit-identical to geo::centroid over the same
/// points in the same order: Point accumulation keeps the x and y chains
/// independent, so summing each coordinate array in index order produces
/// the exact same rounding sequence.
geo::Point span_centroid(simd::PointSpan points) {
  double sx = 0.0;
  double sy = 0.0;
  for (std::size_t i = 0; i < points.size; ++i) sx += points.xs[i];
  for (std::size_t i = 0; i < points.size; ++i) sy += points.ys[i];
  const auto count = static_cast<double>(points.size);
  return {sx / count, sy / count};
}

}  // namespace

void selection_probabilities_into(simd::PointSpan candidates, double sigma,
                                  std::vector<double>& probs) {
  util::require(candidates.size > 0, "selection over empty candidate set");
  util::require_positive(sigma, "selection sigma");

  const geo::Point mean = span_centroid(candidates);
  // The common 1/(2 pi sigma^2) factor cancels in the normalization; work
  // with the exponent only, shifted by the max for numerical stability.
  // The squared-distance/score pass runs through the posterior kernel
  // directly over the caller's SoA columns (the arena's candidate store
  // is already columnar, so there is no conversion edge here). The
  // exp/sum normalization below stays in candidate order -- that
  // summation order is part of the determinism contract.
  const std::size_t n = candidates.size;
  probs.resize(n);
  const double max_log = simd::posterior_log_densities(
      candidates.xs, candidates.ys, n, mean.x, mean.y,
      2.0 * sigma * sigma, probs.data());

  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    probs[i] = std::exp(probs[i] - max_log);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
}

std::vector<double> selection_probabilities(simd::PointSpan candidates,
                                            double sigma) {
  std::vector<double> probs;
  selection_probabilities_into(candidates, sigma, probs);
  return probs;
}

std::vector<double> selection_probabilities(
    const std::vector<geo::Point>& candidates, double sigma) {
  thread_local simd::SoaPoints soa;
  soa.assign(candidates);
  return selection_probabilities(soa.span(), sigma);
}

std::size_t select_candidate(rng::Engine& engine, simd::PointSpan candidates,
                             double sigma) {
  thread_local std::vector<double> probs;
  selection_probabilities_into(candidates, sigma, probs);
  double u = engine.uniform();
  for (std::size_t i = 0; i < probs.size(); ++i) {
    u -= probs[i];
    if (u <= 0.0) return i;
  }
  return probs.size() - 1;
}

std::size_t select_candidate(rng::Engine& engine,
                             const std::vector<geo::Point>& candidates,
                             double sigma) {
  thread_local simd::SoaPoints soa;
  soa.assign(candidates);
  return select_candidate(engine, soa.span(), sigma);
}

}  // namespace privlocad::core
