#pragma once

/// \file noise_kernels.h
/// Internal declarations of the per-ISA counter-based Gaussian noise
/// kernels behind signal::addAwgn(samples, power, seed, counter, stream)
/// (DESIGN.md Sec. 13). Exposed as a header so test_kernels and
/// bench_ext_kernels can drive every level explicitly.
///
/// A kernel adds, for every sample index j in [0, n),
///
///   dst[j] += sigma * (g_re, g_im)
///
/// where (g_re, g_im) is the Box-Muller pair of the two uniforms
/// hashUniform(seed, counter, 2s) (floored at 2^-53) and
/// hashUniform(seed, counter, 2s + 1), s = ((stream + 1) << 32) | j.
/// Samples are independent, so the only numeric freedom is how ln, sqrt,
/// sin and cos are evaluated:
///  - awgnAccumScalar: common::hashGaussianPair (libm log/cos/sin) --
///    bit-identical to the pre-dispatch implementation.
///  - awgnAccumAvx2: the FMA-regime chain below, four samples per
///    256-bit iteration, for both avx2_fma and avx512, emulated exactly by
///    awgnAccumFmaRef.
///
/// FMA-regime chain per sample (u1, u2 the exact uniforms above):
///   ln u1 = k ln2 + ln m, with u1 = 2^k m and m in [sqrt(1/2), sqrt(2)),
///           ln m = 2f + 2f * (f^2 * P(f^2)), f = (m - 1) / (m + 1),
///           P Horner over kLogCoef; k ln2 = fma(k, kLn2Hi, fma(k,
///           kLn2Lo, ln m)).
///   rho   = sigma * sqrt(-2 ln u1).
///   x = 4 u2, q = nearest(x) (ties to even), t = x - q in [-1/2, 1/2]
///           (all exact): sin(2 pi u2) = sin(pi/2 (q + t)).
///   s = t * S(t^2), c = C(t^2): Horner over kSinCoef / kCosCoef.
///   quadrant q mod 4: odd swaps (s, c); bit 1 negates sin; bit 0 xor
///           bit 1 negates cos.
///   dst.re = fma(rho, cos, dst.re), dst.im = fma(rho, sin, dst.im).
///
/// The last two steps, from t and q to (sin, cos), are the FMA regime's
/// one sin/cos chain: the radar tone setup (radar/simd_kernels.h) runs
/// them too, after its own reduction of the angle. quarterTurnSinCos is
/// the portable form and signal/sincos_lanes.h the vector form.

#include <complex>
#include <cstddef>
#include <cstdint>

#include "common/cpuid.h"

namespace rfp::signal::detail {

/// P(y) = sum_k y^k / (2k + 3): the atanh series of ln m in f^2, nine
/// terms (truncation < 3e-17 relative at |f| = 3 - 2 sqrt(2)).
inline constexpr double kLogCoef[9] = {
    1.0 / 3,  1.0 / 5,  1.0 / 7,  1.0 / 9, 1.0 / 11,
    1.0 / 13, 1.0 / 15, 1.0 / 17, 1.0 / 19};

/// ln 2 split so that k * kLn2Hi is exact for |k| < 2^20.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

/// (-1)^k (pi/2)^(2k+1) / (2k+1)!, rounded to nearest: sin(pi t / 2) =
/// t * S(t^2), truncation < 2e-19 relative on |t| <= 1/2.
inline constexpr double kSinCoef[9] = {
    0x1.921fb54442d18p+0,  -0x1.4abbce625be53p-1, 0x1.466bc6775aae2p-4,
    -0x1.32d2cce62bd86p-8, 0x1.50783487ee782p-13, -0x1.e3074fde8871fp-19,
    0x1.e8f434d018d63p-25, -0x1.6fadb9f155744p-31, 0x1.aaec32af93359p-38};

/// (-1)^k (pi/2)^(2k) / (2k)!, rounded to nearest: cos(pi t / 2) =
/// C(t^2), truncation < 3e-18 relative on |t| <= 1/2.
inline constexpr double kCosCoef[9] = {
    0x1.0p+0,              -0x1.3bd3cc9be45dep+0, 0x1.03c1f081b5ac4p-2,
    -0x1.55d3c7e3cbffap-6, 0x1.e1f506891babbp-11, -0x1.a6d1f2a204a8cp-16,
    0x1.f9d38a3763cc3p-22, -0x1.b6e24f44b128fp-28, 0x1.20c62c2f2d7f5p-34};

/// Bits of sqrt(1/2): subtracting them from a positive double's bits
/// moves the exponent/mantissa split point from 1 to sqrt(1/2).
inline constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdull;

/// sin and cos of one angle.
struct SinCos {
  double sin;
  double cos;
};

/// sin and cos of pi/2 (q + t) for |t| <= 1/2, from t and any integer
/// whose low two bits are q's (see file comment), with std::fma (noise.cpp,
/// a baseline TU).
SinCos quarterTurnSinCos(double t, std::uint64_t quadrant);

/// Adds sigma-scaled counter-based complex Gaussian noise to dst[0, n)
/// (see file comment).
using AwgnAccumFn = void (*)(std::complex<double>* dst, std::size_t n,
                             double sigma, std::uint64_t seed,
                             std::uint64_t counter, std::uint64_t stream);

/// Seed-exact libm Box-Muller (noise.cpp).
void awgnAccumScalar(std::complex<double>* dst, std::size_t n, double sigma,
                     std::uint64_t seed, std::uint64_t counter,
                     std::uint64_t stream);

/// Portable scalar emulation of the FMA-regime chain (noise.cpp): the
/// memcmp oracle for awgnAccumAvx2.
void awgnAccumFmaRef(std::complex<double>* dst, std::size_t n, double sigma,
                     std::uint64_t seed, std::uint64_t counter,
                     std::uint64_t stream);

#if defined(RFP_X86_KERNELS)
/// Four samples per 256-bit iteration, the last n % 4 as one more
/// iteration through a stack buffer (noise_kernels_avx2.cpp). Serves
/// avx512 as well: lanes are independent, so one kernel keeps the two
/// FMA levels bit-identical.
void awgnAccumAvx2(std::complex<double>* dst, std::size_t n, double sigma,
                   std::uint64_t seed, std::uint64_t counter,
                   std::uint64_t stream);
#endif

/// The noise kernel for \p level (the libm scalar path when the vector
/// TU is not compiled in).
AwgnAccumFn awgnAccumForLevel(rfp::common::simd::KernelLevel level);

}  // namespace rfp::signal::detail
