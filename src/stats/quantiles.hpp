// Empirical quantiles over stored samples.
//
// The paper reports the "minimal utilization rate" as the lower bound v
// with Pr(UR >= v) = alpha (Eq. 24), i.e. the (1 - alpha) empirical
// quantile of the UR trials.
#pragma once

#include <vector>

namespace privlocad::stats {

/// Empirical quantile with linear interpolation (type-7, the R default).
/// `q` in [0, 1]; `samples` must be non-empty (it is copied and sorted).
double quantile(std::vector<double> samples, double q);

/// Lower bound v such that a fraction `alpha` of samples is >= v, i.e. the
/// (1 - alpha) quantile. Matches the paper's Pr(UR >= v) = alpha.
double lower_bound_at_confidence(std::vector<double> samples, double alpha);

}  // namespace privlocad::stats
