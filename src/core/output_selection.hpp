// Output selection module (paper Section V-D, Algorithm 4).
//
// Given the frozen candidate set {q_1, ..., q_n} of a top location, pick
// the candidate to actually report for an LBA request. Uniform choice
// would waste utility: candidates that landed far from the real location
// fetch irrelevant ads. Instead, the module weights each candidate by the
// posterior density of the real location at that candidate (Eq. 17-18):
// the posterior given the candidates is a Gaussian centred at their
// sample mean with the mechanism's sigma, so
//   Pr[select q_i] = f(q_i) / sum_k f(q_k),
//   f(x, y) = exp(-((x - xbar)^2 + (y - ybar)^2) / (2 sigma^2)) / (2 pi sigma^2).
// Selection is pure post-processing of already-released points: it reads
// only the candidates, never the true location, so it costs no privacy.
//
// The native input is a simd::PointSpan -- the columnar data plane stores
// candidate sets as SoA columns, so the kernel scores store-resident
// memory directly with no AoS -> SoA conversion on the serve path. The
// vector<geo::Point> overloads remain for callers that hold AoS data
// (benches, tests, examples) and produce bit-identical results.
#pragma once

#include <vector>

#include "geo/point.hpp"
#include "rng/engine.hpp"
#include "simd/soa.hpp"

namespace privlocad::core {

/// Eq. 18 selection distribution over `candidates`, written into `probs`
/// (resized; allocation-free once capacity is warm). Requires a non-empty
/// candidate span and sigma > 0. Probabilities sum to 1 exactly
/// (normalized in the scalar candidate order that is part of the
/// determinism contract).
void selection_probabilities_into(simd::PointSpan candidates, double sigma,
                                  std::vector<double>& probs);

/// Eq. 18 selection distribution over an SoA candidate span.
std::vector<double> selection_probabilities(simd::PointSpan candidates,
                                            double sigma);

/// AoS convenience overload; bit-identical to the span form.
std::vector<double> selection_probabilities(
    const std::vector<geo::Point>& candidates, double sigma);

/// Algorithm 4: samples one candidate index from the posterior weights.
/// Scores the span in place through the posterior kernel; the only
/// per-call state is a reused thread_local probability buffer.
std::size_t select_candidate(rng::Engine& engine, simd::PointSpan candidates,
                             double sigma);

/// AoS convenience overload; bit-identical to the span form.
std::size_t select_candidate(rng::Engine& engine,
                             const std::vector<geo::Point>& candidates,
                             double sigma);

}  // namespace privlocad::core
