#pragma once

/// \file simd_kernels.h
/// Internal declarations of the per-ISA radar hot-loop kernels
/// (DESIGN.md Sec. 13): complex tone accumulation in Frontend::synthesize
/// and the Eq. 2 beamforming dot product in Processor::process. Exposed
/// as a header so test_kernels can drive every level explicitly.
///
/// Numeric contract (same two-regime scheme as the GEMM and FFT
/// families):
///  - *Scalar variants are seed-exact: bit-identical to the
///    pre-dispatch loops at any thread count.
///  - *Avx2 / *Avx512 share one FMA-regime specification -- fixed
///    per-lane accumulation chains and a fixed four-lane decomposition
///    at BOTH widths -- so they are bit-identical to each other and to
///    the portable *FmaRef emulations. (The tone kernel deliberately
///    stays four lanes wide at AVX-512; see DESIGN.md Sec. 13.)

#include <cstddef>

#include "common/cpuid.h"
#include "radar/frame.h"

namespace rfp::radar::detail {

/// Accumulates the geometric tone `dst[i] += phasor * rot^i` for
/// i in [0, n). The FMA regime splits the recurrence into four lanes
/// stepping by rot^4: lane prologue p0..p3 = phasor * {1, rot, rot^2,
/// rot*rot^2} in plain std::complex arithmetic, then each lane steps by
/// fmaComplexMul(p, rot^4) after its sample is added.
using ToneAccumFn = void (*)(Complex* dst, std::size_t n, Complex phasor,
                             Complex rot);

/// Whole-row beamforming sweep: out[a] = |dot(s, w row a)|^2 for every
/// steering angle, where the per-angle dot follows this level's
/// beamformDot chain exactly and the squared magnitude is the plain
/// re*re + im*im (no contraction). The per-angle indirect-call overhead
/// dominated the map build at small antenna counts, so the vector
/// variants batch angles instead of antennas: they run the *same*
/// per-angle chain elementwise across angle lanes using the transposed
/// deinterleaved steering planes \p wReT / \p wImT ([antenna][angle],
/// see SteeringMatrix), which is bit-identical to calling the dot per
/// angle. Scalar variants ignore the planes and sweep \p w directly.
using BeamformRowFn = void (*)(const Complex* s, const Complex* w,
                               const double* wReT, const double* wImT,
                               std::size_t nAnt, std::size_t nAngles,
                               double* out);

/// Seed-exact scalar recurrence (simd_kernels.cpp).
void toneAccumScalar(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Portable scalar emulation of the FMA-regime tone kernel: the memcmp
/// oracle for toneAccumAvx2/toneAccumAvx512.
void toneAccumFmaRef(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Seed-exact single-accumulator Eq. 2 dot product sum_k s[k] * w[k]
/// (simd_kernels.cpp).
Complex beamformDotScalar(const Complex* s, const Complex* w, std::size_t n);

/// Portable scalar emulation of the FMA-regime beamforming dot: four
/// partial accumulators (lane j sums products with k == j mod 4, products
/// via fmaComplexMul, plain adds), combined as (p0 + p2) + (p1 + p3),
/// then the scalar fmaComplexMul tail folded into that total.
Complex beamformDotFmaRef(const Complex* s, const Complex* w, std::size_t n);

/// Seed-exact row sweep: beamformDotScalar + std::norm per angle.
void beamformRowScalar(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out);

/// Portable scalar emulation of the FMA-regime row sweep: the memcmp
/// oracle for beamformRowAvx2/beamformRowAvx512.
void beamformRowFmaRef(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out);

#if defined(RFP_X86_KERNELS)
/// Two complex lanes per 256-bit vector, two vectors in flight
/// (simd_kernels_avx2.cpp).
void toneAccumAvx2(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Four complex lanes per 512-bit vector (simd_kernels_avx512.cpp);
/// bit-identical to the AVX2 variants by construction.
void toneAccumAvx512(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Angle-batched row sweeps: four (AVX2) / eight (AVX-512) angle lanes
/// per vector, per-lane chains identical to beamformRowFmaRef. Both run
/// their last nAngles % 4 (AVX2) / nAngles % 8 (AVX-512) angles as one
/// masked iteration of the same lane chain and never read \p w.
void beamformRowAvx2(const Complex* s, const Complex* w, const double* wReT,
                     const double* wImT, std::size_t nAnt,
                     std::size_t nAngles, double* out);
void beamformRowAvx512(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out);
#endif

/// Kernel registries for \p level (SSE2 scalar when the vector TUs are
/// not compiled in).
ToneAccumFn toneAccumForLevel(rfp::common::simd::KernelLevel level);
BeamformRowFn beamformRowForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::radar::detail
