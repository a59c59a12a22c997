#pragma once

/// \file cpuid.h
/// Runtime CPU-feature detection and the process-wide SIMD kernel-level
/// switch behind the dispatched kernel families (DESIGN.md Sec. 13):
/// the GEMM micro-tile (src/linalg), the range-FFT butterflies
/// (src/signal), and the tone-synthesis / Eq. 2 beamforming loops
/// (src/radar).
///
/// Levels form a strict ladder. kSse2 is the portable baseline: plain
/// C++ compiled at the x86-64 baseline ISA (SSE2, no FMA), bit-identical
/// to the seed scalar code. kAvx2Fma and kAvx512 use hand-written
/// intrinsics with explicit fused multiply-adds; both live in the *same*
/// numeric regime -- every kernel family is specified so its AVX2 and
/// AVX-512 implementations produce bit-identical output (per-element
/// accumulation chains and lane counts are fixed across the two widths;
/// AVX-512 only widens throughput where that does not reorder FP math).
/// Cross-regime (kSse2 vs the FMA levels) differences are bounded by the
/// documented tolerance in DESIGN.md Sec. 13 and asserted by
/// test_kernels.
///
/// The active level is resolved once, lazily, from the `RFP_KERNEL`
/// environment variable ("sse2", "avx2", "avx512", or "auto"); unset
/// means "auto" = widest level this CPU supports. Requesting a level the CPU cannot run falls back to the
/// widest supported one (with a one-time stderr note), so a binary built
/// with AVX-512 kernels still starts cleanly on an SSE2-only box.

#include <cstdint>
#include <string>
#include <vector>

namespace rfp::common::simd {

/// ISA levels of the dispatched kernel family, narrowest first. The
/// integer values order the ladder (higher = wider) and are stable for
/// logging; they are not an ABI.
enum class KernelLevel : int {
  kSse2 = 0,     ///< portable scalar baseline (x86-64 SSE2 codegen)
  kAvx2Fma = 1,  ///< 256-bit AVX2 + FMA intrinsics
  kAvx512 = 2,   ///< 512-bit AVX-512F intrinsics (same numeric regime
                 ///< as kAvx2Fma by construction)
};

/// Canonical lower-snake level names ("sse2", "avx2_fma", "avx512"):
/// used in bench JSON, the service-ledger header, and RFP_KERNEL
/// diagnostics.
const char* kernelLevelName(KernelLevel level);

/// CPU features relevant to kernel dispatch, detected once per process.
struct CpuFeatures {
  bool sse2 = false;
  bool avx = false;
  bool fma = false;
  bool avx2 = false;
  bool avx512f = false;
};

/// The host CPU's features (cached after the first call; thread-safe).
const CpuFeatures& cpuFeatures();

/// Space-separated list of the detected feature flags, lowest first
/// (e.g. "sse2 avx fma avx2"). Recorded in every BENCH_*.json so a
/// result can be interpreted against the box that produced it.
std::string cpuFeatureString();

/// Widest kernel level \p f can execute. kAvx2Fma requires avx2 AND fma;
/// kAvx512 requires avx512f.
KernelLevel maxSupportedLevel(const CpuFeatures& f);

/// Result of resolving a requested level against the host CPU.
struct KernelResolution {
  KernelLevel level = KernelLevel::kSse2;
  bool requestedUnsupported = false;  ///< asked for wider than the CPU has
  bool requestUnrecognized = false;   ///< request string did not parse
};

/// Pure resolution logic (unit-tested without touching process state):
/// parses \p request ("sse2", "avx2"/"avx2_fma", "avx512", "auto",
/// nullptr/"" = auto) and clamps to what \p f supports. An unsupported
/// request resolves to maxSupportedLevel(f) with requestedUnsupported
/// set; an unrecognized string resolves to auto with requestUnrecognized
/// set. Resolution never fails: there is always an sse2 fallback.
KernelResolution resolveKernelLevel(const char* request,
                                    const CpuFeatures& f);

/// The process-wide active kernel level. Resolved once on first use from
/// RFP_KERNEL, else auto (see file comment); every
/// dispatched kernel family reads this on entry, so the whole stack
/// switches levels together.
KernelLevel activeKernelLevel();

/// Forces the active level (test/bench hook; also how bench_ext_kernels
/// sweeps levels in one process). Throws std::invalid_argument if the
/// host CPU cannot execute \p level -- forcing can only narrow, never
/// fabricate ISA support. Like setGemmKernel, not meant to be flipped
/// concurrently with in-flight kernel calls; the store itself is atomic.
void setActiveKernelLevel(KernelLevel level);

/// Levels this host can execute, narrowest first (always contains
/// kSse2). What test_kernels and bench_ext_kernels iterate.
std::vector<KernelLevel> availableKernelLevels();

}  // namespace rfp::common::simd
