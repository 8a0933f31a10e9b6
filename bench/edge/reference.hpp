// The host-speed reference: a fixed CPU kernel owned by the benchmark.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// 10-30% over minutes (other tenants on the same cores and caches), so a
// raw time per request measured now and one measured ten minutes later
// differ by more than any regression worth catching. The kernel below is
// compiled from this directory only, so no change to the library can
// speed it up or slow it down; its CPU time, read on the threads that
// serve right before and right after a timed trial, says how fast the
// host ran during that trial. The calibrated end-to-end metrics divide
// that drift out (README.md, "Host-speed calibration").
#pragma once

#include <cstddef>

namespace privlocad::edgebench {

/// The reference pass's CPU time on the host the bounds were set on (a
/// 4-vCPU Intel Xeon VM at its quiet speed). It only fixes the scale of
/// the calibrated metrics: every comparison between two runs divides it
/// out.
inline constexpr double kReferenceNominalS = 0.003;

/// CPU seconds one pass of the reference kernel takes on the calling
/// thread: independent chains of sines, logarithms, integer hashing and
/// reads and writes of an L1-resident table, with data-dependent
/// branches. The table is touched before the clock starts, so what ran
/// before on this core does not change the result.
double reference_pass_s();

/// Runs one reference pass on each of `threads` threads at once (the
/// caller is one of them) and returns their mean CPU seconds.
double reference_s(std::size_t threads);

/// measured / nominal: above 1 when the host ran slower than nominal.
inline double host_slowdown(double reference_s) {
  return reference_s / kReferenceNominalS;
}

}  // namespace privlocad::edgebench
