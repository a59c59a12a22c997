#pragma once

/// \file fft_kernels.h
/// Internal declarations of the per-ISA radix-2 butterfly stage kernels
/// behind signal::fftInPlace (DESIGN.md Sec. 13). Exposed as a header so
/// test_kernels can drive every level explicitly.
///
/// A stage pass applies, for every group base i (step \p len) and
/// butterfly k in [0, len/2):
///
///   w = forward ? stage[k] : conj(stage[k])
///   v = a[i + k + len/2] * w
///   a[i + k]         = u + v      (u = a[i + k])
///   a[i + k + len/2] = u - v
///
/// Butterflies are independent (no cross-butterfly accumulation), so the
/// only numeric degree of freedom is the complex product's rounding:
///  - stagePassScalar: the seed std::complex multiply (four product
///    roundings) -- bit-identical to the pre-dispatch implementation.
///  - stagePassAvx2 / stagePassAvx512: the shared FMA-regime pattern
///    (common/fma_complex.h), identical per butterfly at both widths,
///    emulated exactly by stagePassFmaRef.

#include <cstddef>

#include "common/cpuid.h"
#include "signal/fft.h"

namespace rfp::signal::detail {

/// One butterfly stage pass over the length-\p n array (see file
/// comment). \p stage points at the len/2 forward twiddles of this
/// stage; the inverse transform conjugates them on the fly.
using StagePassFn = void (*)(Complex* a, std::size_t n, std::size_t len,
                             const Complex* stage, bool forward);

/// Seed-exact scalar butterflies (fft.cpp).
void stagePassScalar(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward);

/// Portable scalar emulation of the FMA regime (fft.cpp): the memcmp
/// oracle for the vector passes.
void stagePassFmaRef(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward);

#if defined(RFP_X86_KERNELS)
/// Two butterflies per 256-bit vector (fft_kernels_avx2.cpp); the len 2
/// stage gathers its neighbour pairs with 128-bit lane permutes.
void stagePassAvx2(Complex* a, std::size_t n, std::size_t len,
                   const Complex* stage, bool forward);

/// Four butterflies per 512-bit vector (fft_kernels_avx512.cpp); the
/// len 2 and len 4 stages gather their operands with two-source
/// permutes, and n < 8 runs stagePassAvx2. Bit-identical to
/// stagePassAvx2 by construction.
void stagePassAvx512(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward);
#endif

/// The stage kernel for \p level (SSE2 scalar when the vector TUs are
/// not compiled in).
StagePassFn stagePassForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::signal::detail
