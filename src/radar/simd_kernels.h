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
/// stepping by rot^4: the lane prologue is toneLanes(phasor, rot), then
/// each lane steps by fmaComplexMul(p, rot^4) after its sample is added.
using ToneAccumFn = void (*)(Complex* dst, std::size_t n, Complex phasor,
                             Complex rot);

/// The FMA-regime tone prologue: lane starts p0..p3 = phasor * {1, rot,
/// rot^2, rot*rot^2} and the lane step rot^4, in plain std::complex
/// arithmetic (rot^2 = rot*rot, rot^4 = rot^2*rot^2, p3 = (phasor*rot) *
/// rot^2). It lives in the baseline TU, and every implementation of the
/// regime calls it: GCC compiles a std::complex product in an -mfma TU
/// with its vectorized complex-multiply pattern (vmulpd + vfmaddsub)
/// despite -ffp-contract=off, so a vector TU computing it inline rounds
/// differently from the reference (DESIGN.md Sec. 13).
struct ToneLanes {
  Complex p[4];
  Complex rot4;
};
ToneLanes toneLanes(Complex phasor, Complex rot);

/// Beamforms \p rows consecutive range rows: for row r, with spectra
/// s + r * nAnt ([row][antenna]), out[r * nAngles + a] = |dot(spectra,
/// w row a)|^2 for every steering angle a, where the per-angle dot
/// follows this level's beamformDot chain exactly and the squared
/// magnitude is the plain re*re + im*im (no contraction). The vector
/// variants batch angles and rows instead of antennas: they run the
/// *same* per-angle chain elementwise across angle lanes using the
/// transposed deinterleaved steering planes \p wReT / \p wImT
/// ([antenna][angle], see SteeringMatrix), and each steering load serves
/// several rows, which is bit-identical to calling the dot per row and
/// angle. Scalar variants ignore the planes and sweep \p w directly.
/// Requires nAnt >= 1.
using BeamformRowsFn = void (*)(const Complex* s, std::size_t rows,
                                const Complex* w, const double* wReT,
                                const double* wImT, std::size_t nAnt,
                                std::size_t nAngles, double* out);

/// Seed-exact scalar recurrence (simd_kernels.cpp).
void toneAccumScalar(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Portable scalar emulation of the FMA-regime tone kernel: the memcmp
/// oracle for toneAccumAvx2/toneAccumAvx512.
void toneAccumFmaRef(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Seed-exact single-accumulator Eq. 2 dot product sum_k s[k] * w[k]
/// (simd_kernels.cpp).
Complex beamformDotScalar(const Complex* s, const Complex* w, std::size_t n);

/// Portable scalar emulation of the FMA-regime beamforming dot: four
/// partial sums (lane j sums products with k == j mod 4, products via
/// fmaComplexMul, plain adds, each lane starting from its first product
/// rather than +0), combined as (p0 + p2) + (p1 + p3), then the scalar
/// fmaComplexMul tail folded into that total; with n < 4 the first
/// product starts the total. Dropping the +0 seeds changes at most the
/// sign of a zero sum, which the squared magnitude erases (DESIGN.md
/// Sec. 13).
Complex beamformDotFmaRef(const Complex* s, const Complex* w, std::size_t n);

/// Seed-exact row sweeps: beamformDotScalar + re*re + im*im per angle,
/// row after row.
void beamformRowsScalar(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out);

/// Portable scalar emulation of the FMA-regime row sweeps: the memcmp
/// oracle for beamformRowsAvx2/beamformRowsAvx512.
void beamformRowsFmaRef(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out);

#if defined(RFP_X86_KERNELS)
/// Two complex lanes per 256-bit vector, two vectors in flight
/// (simd_kernels_avx2.cpp).
void toneAccumAvx2(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Four complex lanes per 512-bit vector (simd_kernels_avx512.cpp);
/// bit-identical to the AVX2 variants by construction.
void toneAccumAvx512(Complex* dst, std::size_t n, Complex phasor, Complex rot);

/// Angle- and row-batched sweeps with per-lane chains identical to
/// beamformRowsFmaRef: four angle lanes per vector and two rows per
/// pass (AVX2), eight angle lanes and four rows per pass (AVX-512),
/// partial sums held in registers. Both run their last nAngles % 4
/// (AVX2) / nAngles % 8 (AVX-512) angles as one masked iteration of the
/// same lane chain and never read \p w.
void beamformRowsAvx2(const Complex* s, std::size_t rows, const Complex* w,
                      const double* wReT, const double* wImT,
                      std::size_t nAnt, std::size_t nAngles, double* out);
void beamformRowsAvx512(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out);
#endif

/// Kernel registries for \p level (SSE2 scalar when the vector TUs are
/// not compiled in).
ToneAccumFn toneAccumForLevel(rfp::common::simd::KernelLevel level);
BeamformRowsFn beamformRowsForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::radar::detail
