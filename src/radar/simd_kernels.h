#pragma once

/// \file simd_kernels.h
/// Internal declarations of the per-ISA radar hot-loop kernels
/// (DESIGN.md Sec. 13): tone setup and tone-chain accumulation in
/// Frontend::synthesize and Eq. 2 beamforming in Processor::process.
/// Exposed as a header so test_kernels can drive every level explicitly.
///
/// Numeric contract (same two-regime scheme as the GEMM and FFT
/// families):
///  - *Scalar variants are seed-exact: bit-identical to the
///    pre-dispatch loops at any thread count.
///  - *Avx2 / *Avx512 share one FMA-regime specification -- fixed
///    per-lane accumulation chains at BOTH widths -- so they are
///    bit-identical to each other and to the portable *FmaRef
///    emulations, the tone kernels up to the sign of a NaN. (A tone
///    chain deliberately stays four lanes wide at AVX-512, the tone
///    setup has one 256-bit kernel that both FMA levels run, and
///    beamforming runs one angle per lane at either width; see DESIGN.md
///    Sec. 13.)

#include <cstddef>
#include <limits>
#include <vector>

#include "common/cpuid.h"
#include "env/scatterer.h"
#include "radar/frame.h"
#include "signal/noise_kernels.h"

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
/// p0..p3 = phasor * {1, rot, rot^2, rot*rot^2} and step rot^4 (rot^2 =
/// rot*rot, rot^4 = rot^2*rot^2, p3 = (phasor*rot) * rot^2), takes each
/// complex product as plain-rounded (ac - bd, ad + bc): std::complex's
/// product for finite values, without its inf recovery (__muldc3). GCC
/// compiles a std::complex product in an -mfma TU with its vectorized
/// complex-multiply pattern (vmulpd + vfmaddsub) despite
/// -ffp-contract=off, so the vector tone setup writes these products as
/// separate intrinsic multiplies and adds (DESIGN.md Sec. 13). The tone
/// setup's sse2 level and toneSetupFmaRef take their chains from here.
ToneChain toneChain(rfp::common::simd::KernelLevel level, Complex phasor,
                    Complex rot);

/// Tone setup: the chains of every scatterer a frame's memo missed, at
/// every antenna, in one call (Frontend::synthesizeInto). Miss i's chain
/// at antenna k goes to chains[k * stride + column[i]]: the tone
/// phasor * rot^n with
///
///   dRx      = |p_i - rx_k| + radialOffsetM_i
///   tau      = (dTx_i + dRx) / C
///   beatHz   = slope * tau + beatFreqOffsetHz_i
///   phase    = 2 pi * startHz * tau + phaseOffsetRad_i
///   phasor   = amplitude_i * (cos phase, sin phase)
///   rot      = (cos a, sin a), a = 2 pi * beatHz * sampleIntervalS
///
/// where dTx_i (|p_i - tx| + radial offset) and amplitude_i (path loss
/// included) come from the caller, which needs them to decide whether
/// the scatterer takes a column at all.
///  - toneSetupScalar (sse2) is the seed: dRx by std::hypot, phasor and
///    rot by std::polar (libm sincos), the chain by toneChain(kSse2, ..).
///  - toneSetupFmaRef and toneSetupAvx2, which runs at avx2_fma and
///    avx512 alike, run the chain below, which calls no libm function;
///    the kernel is bit-identical to the reference, lane by lane.
///
/// FMA-regime chain per (miss, antenna), dx and dy the differences above:
///   dRx = sqrt(fma(dx, dx, dy * dy)) + radialOffsetM; tau, beatHz, phase
///         and a by the plain products and sums above, in that order.
///   sin/cos(x), for x = phase and x = a: q = nearest(x * kTwoOverPi) by
///         the 1.5 * 2^52 shift; r = x - q pi/2 in three fnmadd steps,
///         r = fnmadd(q, kPiOver2Hi, x), then kPiOver2Mid, then
///         kPiOver2Lo (q * Hi and q * Mid are exact for |q| < 2^21);
///         t = r * kTwoOverPi; then signal::detail::quarterTurnSinCos(t,
///         q), the noise kernel's polynomials, quadrant swap and signs.
///   phasor = (amplitude * cos phase, amplitude * sin phase), rot = (cos
///         a, sin a).
///   chain: toneChain(kAvx2Fma, phasor, rot), whose plain-rounded
///         products (ac - bd, ad + bc) round each product and sum on its
///         own; they skip std::complex's inf recovery (__muldc3), so a
///         non-finite input may give NaN where std::complex gives inf.
/// Accuracy: the sin/cos lie within 4 ulp of libm's, and within 2.2e-16
/// absolute, for |x| < 2^17 (test KernelToneSetup.SinCosWithinFourUlpOfLibm;
/// 2^22 random arguments met 4 ulp once); NaN and +-inf give NaN.

/// 2/pi, and pi/2 split in three: Hi and Mid carry 31 and 32 significant
/// bits, Lo is pi/2 - Hi - Mid rounded to nearest.
inline constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
inline constexpr double kPiOver2Hi = 0x1.921fb544p+0;
inline constexpr double kPiOver2Mid = 0x1.0b4611a6p-34;
inline constexpr double kPiOver2Lo = 0x1.3198a2e037073p-69;

/// The radar constants tone setup reads, fixed per Frontend.
struct ToneGeometry {
  std::vector<double> rxX;  ///< config.antennaPosition(k).x per element
  std::vector<double> rxY;  ///< config.antennaPosition(k).y per element
  double slopeHzPerS = 0.0;
  double startHz = 0.0;
  double sampleIntervalS = 0.0;
};

/// One frame's memo misses, struct of arrays: miss i is the scatterer
/// whose inputs sit at index i of every array. The arrays only grow, so
/// a steady-state frame reuses their capacity (ToneMemo keeps one).
struct ToneMisses {
  std::vector<double> x, y, radialOffsetM, amplitude, beatFreqOffsetHz,
      phaseOffsetRad, dTx;
  std::vector<std::size_t> column;
  std::size_t count = 0;

  /// Empties the list with room for \p capacity misses.
  void reset(std::size_t capacity);

  /// Appends \p s with its amplitude after path loss, its TX path length
  /// and the column its chains take.
  void push(const env::PointScatterer& s, double amplitudeAfterLoss,
            double txPathM, std::size_t chainColumn);
};

/// Writes the chains of every miss at every antenna (see above).
using ToneSetupFn = void (*)(const ToneGeometry& geometry,
                             const ToneMisses& misses, ToneChain* chains,
                             std::size_t stride);

/// Seed-exact setup (simd_kernels.cpp).
void toneSetupScalar(const ToneGeometry& geometry, const ToneMisses& misses,
                     ToneChain* chains, std::size_t stride);

/// Portable scalar emulation of the FMA-regime setup, with std::fma and
/// std::sqrt: the memcmp oracle for toneSetupAvx2.
void toneSetupFmaRef(const ToneGeometry& geometry, const ToneMisses& misses,
                     ToneChain* chains, std::size_t stride);

/// sin and cos of \p x by the FMA-regime chain above (the reference the
/// tests hold against libm).
rfp::signal::detail::SinCos toneSinCosFmaRef(double x);

/// Adds \p count tone chains of one level into dst[0, n), in list
/// order: every sample becomes dst + t_0 + t_1 + ... with each t_c
/// exactly the value the level's single-chain loop produces. The vector
/// variants interleave several chains per pass over dst, which changes
/// only when the adds issue, never their order per sample.
using ToneAccumChainsFn = void (*)(Complex* dst, std::size_t n,
                                   const ToneChain* chains,
                                   std::size_t count);

/// The one NaN the pair chain stores, the positive quiet NaN
/// 0x7ff8000000000000. Where both operands of an add or fma are NaN, x86
/// returns the one GCC made the first source, which follows each build's
/// register allocation; storing one fixed NaN keeps every FMA-level
/// function's cells bit-identical (DESIGN.md Sec. 13).
inline constexpr double kPairNaN = std::numeric_limits<double>::quiet_NaN();

/// Beamforms \p rows consecutive range rows: for row r, with spectra
/// s + r * nAnt ([row][antenna]), out[r * nAngles + a] = |sum_k s_k *
/// w_k(a)|^2 for every steering angle a, the squared magnitude taken as
/// the plain re*re + im*im (no contraction). \p w is the interleaved
/// [angle][antenna] matrix of all nAngles angles; \p wReT / \p wImT are
/// deinterleaved [antenna][angle] planes of its first h = ceil(nAngles /
/// 2) angles (stride h, see SteeringMatrix). Requires nAnt >= 1.
///  - beamformRowsScalar (sse2) is the seed: beamformDotScalar per row
///    and angle over \p w; it ignores the planes.
///  - beamformRowsFmaRef, beamformRowsAvx2 and beamformRowsAvx512 run the
///    pair chain below from the planes and never read \p w. They take
///    angle nAngles - 1 - a as conj(w(a)): that is the FMA levels'
///    precondition on the steering matrix, which Processor's grid
///    theta_a = pi (a + 1) / (nAngles + 1) meets up to the rounding of
///    its computed entries (DESIGN.md Sec. 13).
///
/// FMA-regime pair chain per row r and direct angle a < h, with m =
/// floor(nAngles / 2) mirrored angles, s_k = (x_k, y_k) and w_k(a) =
/// (c_k, sigma_k):
///   A = x_0 c_0, B = y_0 sigma_0, C = x_0 sigma_0, D = y_0 c_0 (plain
///       products: no +0 seed);
///   for k = 1 .. nAnt - 1 in order: A = fma(x_k, c_k, A), B = fma(y_k,
///       sigma_k, B), C = fma(x_k, sigma_k, C), D = fma(y_k, c_k, D);
///   out[r][a] = (A - B) * (A - B) + (C + D) * (C + D);
///   for a < m only: out[r][nAngles - 1 - a] = (A + B) * (A + B) +
///       (D - C) * (D - C),
/// squares and sums never fused, and a cell that is NaN stored as
/// kPairNaN. sum_k s_k w_k = (A - B) + i (C + D) and sum_k s_k conj(w_k)
/// = (A + B) + i (D - C); for odd nAngles the middle angle stores only its
/// direct value. Starting each sum from its first product instead of +0
/// changes at most the sign of a zero sum, which the squares erase.
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

/// Seed-exact row sweeps: beamformDotScalar + re*re + im*im per angle,
/// row after row.
void beamformRowsScalar(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out);

/// Portable scalar emulation of the FMA-regime pair chain, with
/// std::fma: the memcmp oracle for beamformRowsAvx2/beamformRowsAvx512.
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

/// Four misses per 256-bit vector, the last count % 4 as one masked
/// block; each block runs every antenna (simd_kernels_avx2.cpp). The
/// setup of both FMA levels; bit-identical to toneSetupFmaRef.
void toneSetupAvx2(const ToneGeometry& geometry, const ToneMisses& misses,
                   ToneChain* chains, std::size_t stride);

/// Row- and angle-batched pair chains, bit-identical to
/// beamformRowsFmaRef: four direct angles per 256-bit vector and two
/// rows per pass (AVX2), eight angles per 512-bit vector and four rows
/// per pass (AVX-512), the four sums of every row in registers. Each
/// block of direct angles also stores its mirrored cells, reversed in
/// registers; the last partial block runs the same chain under masks.
void beamformRowsAvx2(const Complex* s, std::size_t rows, const Complex* w,
                      const double* wReT, const double* wImT,
                      std::size_t nAnt, std::size_t nAngles, double* out);
void beamformRowsAvx512(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out);
#endif

/// Kernel registries for \p level (SSE2 scalar when the vector TUs are
/// not compiled in).
ToneSetupFn toneSetupForLevel(rfp::common::simd::KernelLevel level);
ToneAccumChainsFn toneAccumChainsForLevel(
    rfp::common::simd::KernelLevel level);
BeamformRowsFn beamformRowsForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::radar::detail
