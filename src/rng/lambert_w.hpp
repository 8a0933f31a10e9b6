// Lambert W function, branch -1, for real arguments.
//
// The planar Laplace mechanism of Andrés et al. (CCS 2013) — the "one-time
// geo-IND" mechanism the paper attacks — samples its radius by inverting
// the radial CDF C(r) = 1 - (1 + eps*r) * exp(-eps*r), whose inverse is
//   r = -(1/eps) * ( W_{-1}((p - 1)/e) + 1 ).
// No standard-library Lambert W exists, so the branch is implemented with
// analytic initial guesses refined by Halley iteration; accuracy is
// verified in tests against the defining identity W(x) e^{W(x)} = x.
#pragma once

namespace privlocad::rng {

/// Branch W-1(x), defined for x in [-1/e, 0). Throws InvalidArgument
/// outside the domain.
double lambert_wm1(double x);

}  // namespace privlocad::rng
