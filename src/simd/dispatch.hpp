// Runtime CPU-feature dispatch for the SIMD kernel layer.
//
// The hot kernels in simd/kernels.hpp exist in two implementations: a
// portable scalar one and an AVX2 one compiled into its own translation
// unit with -mavx2 (gated by the PRIVLOCAD_NATIVE_ARCH CMake option).
// Which one runs is a process-wide dispatch level, decided once at
// startup:
//
//   - PRIVLOCAD_SIMD=auto (or unset): AVX2 when both compiled in and
//     supported by the CPU, scalar otherwise.
//   - PRIVLOCAD_SIMD=avx2: force AVX2; fails LOUDLY (StatusError) when
//     the binary or the CPU cannot honor it, rather than silently
//     running a different kernel than the experiment claims.
//   - PRIVLOCAD_SIMD=scalar: force the scalar fallbacks.
//   - anything else: loud parse failure (same contract as
//     PRIVLOCAD_THREADS / PRIVLOCAD_FAULTS).
//
// DETERMINISM CONTRACT. Scalar and AVX2 kernels agree BIT-FOR-BIT: every
// lane performs the same sub/mul/add/div sequence as the scalar loop (no
// FMA contraction -- the kernel TUs compile with -ffp-contract=off and
// without -mfma), order-sensitive reductions stay scalar, and the only
// vector reduction (a max over finite values) is order-independent.
// tests/property_test.cpp asserts the agreement over randomized inputs,
// so switching dispatch levels never changes attack inference or
// obfuscation streams -- only throughput. The chosen level is published
// as the `simd.dispatch_avx2` gauge and recorded in every BENCH_*.json.
#pragma once

#include <string>

namespace privlocad::obs {
class MetricsRegistry;
}

namespace privlocad::simd {

/// Kernel implementation the process dispatches to.
enum class DispatchLevel {
  kScalar = 0,  ///< portable scalar loops (always available)
  kAvx2 = 1,    ///< 4-wide AVX2 lanes (needs -mavx2 TU + CPU support)
};

/// True when the running CPU reports AVX2 (cpuid, OS-saved ymm state).
bool cpu_supports_avx2();

/// True when the AVX2 kernel TU was compiled in (PRIVLOCAD_NATIVE_ARCH).
bool avx2_compiled_in();

/// True when kAvx2 is selectable: compiled in AND supported by the CPU.
bool avx2_available();

/// The process-wide dispatch level. Initialized once from PRIVLOCAD_SIMD
/// (see file comment); throws util::StatusError on a malformed value or
/// an unsatisfiable "avx2" request.
DispatchLevel active_dispatch_level();

/// Overrides the process-wide level (tests and A/B benches). Throws
/// util::InvalidArgument when kAvx2 is requested but unavailable.
/// Thread-safe, but not intended to be flipped mid-query.
void set_dispatch_level(DispatchLevel level);

/// "scalar" | "avx2".
const char* dispatch_level_name(DispatchLevel level);

/// Comma-separated runtime CPU feature list ("sse4.2,avx,avx2,fma,...")
/// for perf-record provenance: BENCH_*.json numbers are only comparable
/// across machines when the records say what the machines were.
std::string cpu_features_string();

/// Publishes the active level as the `simd.dispatch_avx2` gauge (1 when
/// AVX2, 0 when scalar). active_dispatch_level() publishes to the global
/// registry on first use and on every set_dispatch_level();
/// net::EdgeServer::create publishes to the server's own registry.
void publish_dispatch_gauge(obs::MetricsRegistry& registry);

}  // namespace privlocad::simd
