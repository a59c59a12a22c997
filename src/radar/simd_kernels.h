#pragma once

/// \file simd_kernels.h
/// Internal declarations of the per-ISA radar hot-loop kernels
/// (DESIGN.md Sec. 13): tone-chain accumulation in Frontend::synthesize
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
///    the portable *FmaRef emulations. (A tone chain deliberately stays
///    four lanes wide at AVX-512; see DESIGN.md Sec. 13.)

#include <cstddef>

#include "common/cpuid.h"
#include "radar/frame.h"

namespace rfp::radar::detail {

/// One tone's chain state: the values its next four samples add and
/// the factor that advances them. At sse2 the chain is the plain
/// recurrence (p[0] = phasor, step = rot, p[1..3] unused); at the FMA
/// levels it is four lanes stepping by rot^4 (toneChain below).
struct ToneChain {
  Complex p[4];
  Complex step;
};

/// The chain of the tone phasor * rot^i at \p level. The FMA prologue,
/// p0..p3 = phasor * {1, rot, rot^2, rot*rot^2} and step rot^4, runs in
/// plain std::complex arithmetic (rot^2 = rot*rot, rot^4 = rot^2*rot^2,
/// p3 = (phasor*rot) * rot^2). It lives in this baseline TU because GCC
/// compiles a std::complex product in an -mfma TU with its vectorized
/// complex-multiply pattern (vmulpd + vfmaddsub) despite
/// -ffp-contract=off, so a vector TU computing it would round
/// differently from the reference (DESIGN.md Sec. 13).
ToneChain toneChain(rfp::common::simd::KernelLevel level, Complex phasor,
                    Complex rot);

/// Adds \p count tone chains of one level into dst[0, n), in list
/// order: every sample becomes dst + t_0 + t_1 + ... with each t_c
/// exactly the value the level's single-chain loop produces. The vector
/// variants interleave several chains per pass over dst, which changes
/// only when the adds issue, never their order per sample.
using ToneAccumChainsFn = void (*)(Complex* dst, std::size_t n,
                                   const ToneChain* chains,
                                   std::size_t count);

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

/// Seed-exact scalar recurrence, chain after chain: dst[i] += p; p *=
/// step (simd_kernels.cpp).
void toneAccumChainsScalar(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count);

/// Portable scalar emulation of the FMA-regime tone chains, chain after
/// chain: four lanes, each stepping by fmaComplexMul(p, step) after its
/// sample is added, the last n % 4 samples taking the leading lanes. The
/// memcmp oracle for toneAccumChainsAvx2/toneAccumChainsAvx512.
void toneAccumChainsFmaRef(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count);

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
/// Three chains per pass over dst, each as two 256-bit vectors of two
/// lanes (simd_kernels_avx2.cpp), and eight chains per pass, each in one
/// 512-bit vector (simd_kernels_avx512.cpp): the chain state stays in
/// registers across the pass. Both run the last n % 4 samples as one
/// masked block and are bit-identical to toneAccumChainsFmaRef.
void toneAccumChainsAvx2(Complex* dst, std::size_t n, const ToneChain* chains,
                         std::size_t count);
void toneAccumChainsAvx512(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count);

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
ToneAccumChainsFn toneAccumChainsForLevel(
    rfp::common::simd::KernelLevel level);
BeamformRowsFn beamformRowsForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::radar::detail
