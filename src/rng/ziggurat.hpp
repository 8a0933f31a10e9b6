// Ziggurat standard-normal sampler (Marsaglia & Tsang 2000) -- the one
// Gaussian sampler in the library; rng/samplers.hpp builds every normal
// and 2-D Gaussian draw on it.
//
// At population scale (every synthetic check-in jitter and every n-fold
// mechanism release draws Gaussians) the sampler dominates the hot
// loops. An inverse-CDF sampler pays an erfc + exp + sqrt per variate;
// the ziggurat covers the density with 128 equal-area horizontal strips
// so ~98.8% of draws cost one engine() call, one table compare, and one
// multiply; only wedge and tail draws (~1.2%) touch a transcendental.
// Layer index, sign, and the 52-bit mantissa all come from ONE 64-bit
// engine draw, taken from non-overlapping bit ranges (unlike the
// original 32-bit code, where the layer bits alias the low magnitude
// bits).
//
// The stream is deterministic per engine seed: a variate consumes one
// engine draw on the fast path and a variable number on wedge/tail
// rejections, so the batched and single-draw forms below consume the
// engine identically.
#pragma once

#include <span>

#include "rng/engine.hpp"

namespace privlocad::rng {

/// One standard-normal variate via the 128-layer ziggurat.
double standard_normal_ziggurat(Engine& engine);

/// Fills `out` with i.i.d. standard-normal variates via the ziggurat.
/// Batched form of standard_normal_ziggurat: hoists the table lookup and
/// keeps the rejection loop branch-predictable across the whole span.
void fill_standard_normal_ziggurat(Engine& engine, std::span<double> out);

}  // namespace privlocad::rng
