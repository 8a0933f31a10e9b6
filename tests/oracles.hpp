// Reference implementations the test suite checks the library against.
//
// Nothing in src/ calls these. Each one is the other side of a comparison
// a test makes with shipped code: an exact formula for an approximation
// (haversine vs the equirectangular projection), a forward function for
// an inverse (the planar Laplace radial CDF vs its quantile), a sampled
// estimate for a closed form (Monte-Carlo efficacy), a brute-force scan
// for a solver's claim (the geo-IND constraint check, all-pairs
// connected components, a cluster centroid summed member by member), an
// AoS point-by-point loop for an SoA kernel (the scan and posterior
// kernels), a dense tableau for a sparse one (the two-phase simplex), a
// sequential rule for a batched one (single-request admission), or a
// predicate only tests ask (bounding-box containment).
// Keeping them here keeps every function under src/ reachable from a
// shipped binary.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geo/bounding_box.hpp"
#include "geo/latlon.hpp"
#include "geo/point.hpp"
#include "geo/projection.hpp"
#include "lppm/mechanism.hpp"
#include "lppm/optimal_mechanism.hpp"
#include "net/admission.hpp"
#include "opt/simplex.hpp"
#include "opt/sparse.hpp"
#include "rng/engine.hpp"

namespace privlocad::oracles {

// ------------------------------------------------------------------- geo

/// Great-circle (haversine) distance between two coordinates, in meters:
/// the exact distance the equirectangular projection approximates.
double haversine_distance(geo::LatLon a, geo::LatLon b);

/// Radians-to-degrees conversion, the inverse of geo::deg_to_rad.
double rad_to_deg(double radians);

/// Maps a geographic coordinate into `projection`'s local plane: the
/// inverse of LocalProjection::to_geo.
geo::Point to_local(const geo::LocalProjection& projection,
                    geo::LatLon coordinate);

/// Closed-interval membership of `p` in `box`, the property a box-filling
/// generator (uniform_grid_prior) must satisfy.
bool box_contains(const geo::BoundingBox& box, geo::Point p);

/// Geographic box of the paper's Shanghai dataset.
struct GeoBox {
  geo::LatLon south_west;
  geo::LatLon north_east;

  bool contains(geo::LatLon p) const {
    return p.lat_deg >= south_west.lat_deg &&
           p.lat_deg <= north_east.lat_deg &&
           p.lon_deg >= south_west.lon_deg && p.lon_deg <= north_east.lon_deg;
  }
};

/// The study area: lat in [30.7, 31.4], lon in [121, 122].
GeoBox shanghai_geo_box();

// ---------------------------------------------------------------- attack

/// Connected components of `points` under dist < threshold_m (strict),
/// by union-find over all n^2/2 pairs: the reference for
/// attack::connectivity_clusters. Same output contract: each component's
/// indices ascending, components by size descending, ties by smallest
/// index. The pair test computes dx*dx + dy*dy < threshold^2 exactly as
/// the grid's scan kernel does, so pairs at exactly theta agree.
std::vector<std::vector<std::size_t>> connected_components_bruteforce(
    const std::vector<geo::Point>& points, double threshold_m);

/// Centroid of `cluster`'s points, summed in the cluster's order from
/// (0, 0). Over an ascending cluster these are the bits
/// attack::build_profile gives the cluster's entry. Throws
/// InvalidArgument on an empty cluster.
geo::Point cluster_centroid(const std::vector<geo::Point>& points,
                            const std::vector<std::size_t>& cluster);

// ------------------------------------------------------------------ simd

/// Every point of points[begin, end) with geo::distance_squared(p, q) <=
/// r2, as (index, d2) pairs in ascending index, one AoS point at a time:
/// the reference for simd::scan_slots_within over the same points as SoA.
std::vector<std::pair<std::uint32_t, double>> points_within_bruteforce(
    const std::vector<geo::Point>& points, std::uint32_t begin, geo::Point q,
    double r2);

/// -geo::distance_squared(p, mean) / denom for every point: the reference
/// for simd::posterior_log_densities' out[].
std::vector<double> log_densities_bruteforce(
    const std::vector<geo::Point>& points, geo::Point mean, double denom);

// ------------------------------------------------------------------- rng

/// Principal branch W0(x) of the Lambert W function, x >= -1/e. Throws
/// InvalidArgument outside the domain. It meets the library's W-1 branch
/// at the branch point x = -1/e, where both equal -1.
double lambert_w0(double x);

/// Radial CDF of the planar Laplace distribution,
/// C(r) = 1 - (1 + eps r) e^{-eps r}: the function
/// rng::planar_laplace_radius_quantile inverts.
double planar_laplace_radius_cdf(double r, double epsilon);

// ----------------------------------------------------------------- stats

/// Empirical CDF of a sample, for Kolmogorov-Smirnov checks of samplers
/// against their reference CDFs.
class EmpiricalCdf {
 public:
  /// `samples` must be non-empty.
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  double operator()(double x) const;

  /// Kolmogorov-Smirnov statistic against a reference CDF callable.
  template <typename Cdf>
  double ks_statistic(Cdf&& reference) const {
    double worst = 0.0;
    const double n = static_cast<double>(sorted_.size());
    for (std::size_t i = 0; i < sorted_.size(); ++i) {
      const double ref = reference(sorted_[i]);
      const double hi = (static_cast<double>(i) + 1.0) / n - ref;
      const double lo = ref - static_cast<double>(i) / n;
      worst = std::max({worst, hi, lo});
    }
    return worst;
  }

 private:
  std::vector<double> sorted_;
};

// ------------------------------------------------------------------ lppm

/// Empirical geo-indistinguishability verifier: estimates, by sampling,
/// whether a mechanism's output distributions for two r-neighbouring
/// inputs respect
///     Pr[M(p0) in S] <= e^eps * Pr[M(p1) in S] + delta
/// over grid cells along the p0 -> p1 axis and their prefix/suffix
/// unions (half-planes, where violations of location-scale mechanisms
/// concentrate). Sampling can only refute a claim, not prove it, but it
/// catches calibration bugs: a sigma off by 2x, noise on one coordinate
/// only, a forgotten sqrt(n).
struct VerifierConfig {
  /// Neighbouring distance r: p1 = p0 + (r, 0).
  double radius_m = 500.0;

  /// The claim to test.
  double epsilon = 1.0;
  double delta = 0.01;

  /// Samples drawn from each input's output distribution.
  std::size_t samples = 20000;

  /// Output-space bins along the p0 -> p1 axis.
  std::size_t bins = 64;

  /// Statistical slack added to delta to absorb sampling noise
  /// (~ a few / sqrt(samples)).
  double estimation_slack = 0.02;
};

struct VerifierReport {
  bool consistent = true;     ///< no test set refuted the claim
  double worst_excess = 0.0;  ///< max Pr0(S) - (e^eps Pr1(S) + delta), >= 0
  std::size_t sets_tested = 0;
};

/// Tests the (r, eps, delta)-geo-IND claim for `mechanism` around
/// `base_location`. Multi-output mechanisms are tested on their FIRST
/// output's marginal (the per-release view an observer gets).
VerifierReport verify_geo_ind(rng::Engine& engine,
                              const lppm::Mechanism& mechanism,
                              geo::Point base_location,
                              const VerifierConfig& config = {});

/// Row `i` of the solved channel (output probabilities over cells).
const std::vector<double>& channel_row(
    const lppm::OptimalGeoIndMechanism& mechanism, std::size_t i);

/// Center of cell `i`.
geo::Point cell_center(const lppm::OptimalGeoIndMechanism& mechanism,
                       std::size_t i);

/// max over ALL cell pairs (i, i') and outputs j of
/// X_ij - e^{eps d(i,i')} X_i'j: <= 0 when the channel is eps-geo-IND.
/// The solved optimal channel reads above that: the solver's degeneracy
/// perturbation leaves up to 1.0e-4 at 4x4, eps = ln 2/200 (ROADMAP
/// item 3).
double max_constraint_violation(const lppm::OptimalGeoIndMechanism& mechanism);

/// The same check on a bare channel (row i = output distribution of cell
/// i) over cells at `centers`.
double max_constraint_violation(
    const std::vector<std::vector<double>>& channel,
    const std::vector<geo::Point>& centers, double epsilon);

// --------------------------------------------------------------- utility

/// Monte-Carlo efficacy: draw ads uniformly inside the selected
/// candidate's AOR and count those inside the AOI. Agrees with
/// utility::efficacy_single in expectation.
double efficacy_monte_carlo(rng::Engine& engine, geo::Point true_location,
                            geo::Point selected_candidate,
                            double targeting_radius_m,
                            std::size_t samples = 512);

// ------------------------------------------------------------------- opt

/// Row-major dense matrix, sized rows x cols at construction. Index
/// bounds are asserted in debug builds (NDEBUG off); release builds
/// elide the check to keep the pivot inner loop branch-free.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  double& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_ && "Matrix::at index out of range");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_ && "Matrix::at index out of range");
    return data_[r * cols_ + c];
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dense LP for solve_dense:
///     minimize c^T x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.
struct LpProblem {
  std::vector<double> objective;  ///< c, one entry per variable

  Matrix eq_lhs;                  ///< A_eq (may have 0 rows)
  std::vector<double> eq_rhs;     ///< b_eq

  Matrix ub_lhs;                  ///< A_ub (may have 0 rows)
  std::vector<double> ub_rhs;     ///< b_ub

  /// Validates dimensional consistency; throws util::InvalidArgument with
  /// a message naming the offending block and the mismatched sizes.
  void validate() const;
};

/// Dense two-phase tableau simplex: the reference opt::solve is checked
/// against. Same semantics -- statuses, rhs normalization, the
/// graded degeneracy perturbation, Dantzig pricing with a Bland fallback
/// after 64 degenerate pivots, artificial drive-out -- over the full
/// m x n tableau, so it stays small and obviously correct rather than
/// fast. Publishes no metrics.
opt::LpSolution solve_dense(const LpProblem& problem,
                            const opt::SimplexOptions& options = {});

/// Dense -> CSR: keeps entries with |a_ij| > zero_tolerance.
opt::CsrMatrix csr_from_dense(const Matrix& dense,
                              double zero_tolerance = 0.0);

/// CSR -> dense, every stored entry copied: builds the dense reference
/// LP from the one sparse assembly the library has.
Matrix dense_from_csr(const opt::CsrMatrix& csr);

// ------------------------------------------------------------------- net

/// Admits one request: the sequential decision try_push_batch must give
/// each request of a batch.
bool try_push(net::BoundedRequestQueue& queue, net::PendingRequest request);

/// Requests waiting for service (queued plus popped-but-not-started), as
/// the queue's own lock sees them.
std::size_t queue_size(net::BoundedRequestQueue& queue);

}  // namespace privlocad::oracles
