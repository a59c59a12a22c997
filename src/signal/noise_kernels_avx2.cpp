/// \file noise_kernels_avx2.cpp
/// AVX2+FMA counter-based Gaussian noise: four samples per 256-bit
/// iteration. Compiled with -mavx2 -mfma -ffp-contract=off; runtime-gated
/// by cpuid. Every lane runs the chain of noise_kernels.h, its sin/cos
/// from signal/sincos_lanes.h, so the kernel is bit-identical to
/// awgnAccumFmaRef; no libm function is called.

#include "signal/noise_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <cstring>

#include "common/det_hash.h"
#include "signal/sincos_lanes.h"

namespace rfp::signal::detail {

namespace {

inline __m256i splat(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Low 64 bits of a * b per lane from three 32x32->64 products.
inline __m256i mulLo64(__m256i a, std::uint64_t b) {
  const __m256i bLo = splat(b & 0xffffffffull);
  const __m256i bHi = splat(b >> 32);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), bLo),
                       _mm256_mul_epu32(a, bHi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, bLo),
                          _mm256_slli_epi64(cross, 32));
}

/// common::splitmix64 per lane.
inline __m256i splitmix64(__m256i x) {
  x = _mm256_add_epi64(x, splat(0x9e3779b97f4a7c15ull));
  x = mulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
              0xbf58476d1ce4e5b9ull);
  x = mulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
              0x94d049bb133111ebull);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// (h >> 11) * 2^-53, exact: the 53-bit integer converts in two halves,
/// hi (21 bits) as 2^84 + hi 2^32 and lo (32 bits) as 2^52 + lo, whose
/// difference-and-sum is exactly representable.
inline __m256d unitFromBits(__m256i h) {
  const __m256i m = _mm256_srli_epi64(h, 11);
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(m, 32), splat(0x4530000000000000ull)));
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_blend_epi32(m, splat(0x4330000000000000ull), 0xaa));
  const __m256d v = _mm256_add_pd(
      _mm256_sub_pd(hi, _mm256_set1_pd(0x1.0p84 + 0x1.0p52)), lo);
  return _mm256_mul_pd(v, _mm256_set1_pd(0x1.0p-53));
}

/// The noise increments of four samples whose indices the lanes of \p idx
/// hold, in lane order (n, n+2, n+1, n+3): the unpacks below then yield
/// re/im of samples (n, n+1) in \p lo and (n+2, n+3) in \p hi. \p acc*
/// are the samples the increments fuse into. Forced inline: as an
/// out-of-line call from the loop and the tail it ran 1.5x slower.
[[gnu::always_inline]] inline void noiseLanes(
    __m256i idx, __m256i streamBase, __m256i key, __m256d sigma,
    __m256d accLo, __m256d accHi, __m256d* lo, __m256d* hi) {
  // hashUniform(seed, counter, 2s) and (.., 2s + 1): (2s + 1) C = 2s C + C.
  const std::uint64_t kStreamMul = 0xd6e8feb86659fd93ull;
  const __m256i s2 =
      _mm256_slli_epi64(_mm256_or_si256(streamBase, idx), 1);
  const __m256i s2c = mulLo64(s2, kStreamMul);
  const __m256i h1 = splitmix64(_mm256_xor_si256(key, s2c));
  const __m256i h2 = splitmix64(
      _mm256_xor_si256(key, _mm256_add_epi64(s2c, splat(kStreamMul))));
  const __m256d u1 =
      _mm256_max_pd(unitFromBits(h1), _mm256_set1_pd(0x1.0p-53));
  const __m256d u2 = unitFromBits(h2);

  // ln u1 = k ln2 + ln m, m in [sqrt(1/2), sqrt(2)).
  const __m256i bits = _mm256_castpd_si256(u1);
  const __m256i biasedK = _mm256_srli_epi64(
      _mm256_add_epi64(bits, splat(0x3ff0000000000000ull - kSqrtHalfBits)),
      52);
  const __m256d m = _mm256_castsi256_pd(_mm256_sub_epi64(
      bits, _mm256_slli_epi64(_mm256_sub_epi64(biasedK, splat(1023)), 52)));
  const __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(biasedK, splat(0x4330000000000000ull))),
      _mm256_set1_pd(0x1.0p52 + 1023.0));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d f =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d f2 = _mm256_mul_pd(f, f);
  const __m256d twoF = _mm256_add_pd(f, f);
  const __m256d lnM = _mm256_fmadd_pd(
      twoF, _mm256_mul_pd(f2, horner9(f2, kLogCoef)), twoF);
  const __m256d lnU1 = _mm256_fmadd_pd(
      k, _mm256_set1_pd(kLn2Hi),
      _mm256_fmadd_pd(k, _mm256_set1_pd(kLn2Lo), lnM));
  const __m256d rho = _mm256_mul_pd(
      sigma, _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), lnU1)));

  // sin/cos(2 pi u2) = sin/cos(pi/2 (q + t)), exact quarter-turn split.
  const __m256d x = _mm256_mul_pd(_mm256_set1_pd(4.0), u2);
  const __m256d shifted = _mm256_add_pd(x, _mm256_set1_pd(0x1.8p52));
  const __m256d t =
      _mm256_sub_pd(x, _mm256_sub_pd(shifted, _mm256_set1_pd(0x1.8p52)));
  __m256d sinV, cosV;
  quarterTurnSinCos(t, _mm256_castpd_si256(shifted), &sinV, &cosV);

  *lo = _mm256_fmadd_pd(_mm256_unpacklo_pd(rho, rho),
                        _mm256_unpacklo_pd(cosV, sinV), accLo);
  *hi = _mm256_fmadd_pd(_mm256_unpackhi_pd(rho, rho),
                        _mm256_unpackhi_pd(cosV, sinV), accHi);
}

}  // namespace

void awgnAccumAvx2(std::complex<double>* dst, std::size_t n, double sigma,
                   std::uint64_t seed, std::uint64_t counter,
                   std::uint64_t stream) {
  const __m256i key = splat(seed ^ rfp::common::splitmix64(counter + 1));
  const __m256i streamBase = splat((stream + 1) << 32);
  const __m256d sigmaV = _mm256_set1_pd(sigma);
  const __m256i step = splat(4);
  __m256i idx = _mm256_set_epi64x(3, 1, 2, 0);
  double* d = reinterpret_cast<double*>(dst);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d lo, hi;
    noiseLanes(idx, streamBase, key, sigmaV, _mm256_loadu_pd(d + 2 * i),
               _mm256_loadu_pd(d + 2 * i + 4), &lo, &hi);
    _mm256_storeu_pd(d + 2 * i, lo);
    _mm256_storeu_pd(d + 2 * i + 4, hi);
    idx = _mm256_add_epi64(idx, step);
  }
  // The last n % 4 samples run the same chain once more through a
  // four-sample buffer, so no load or store reaches past dst[n - 1].
  if (i < n) {
    alignas(32) double buf[8] = {};
    const std::size_t bytes = (n - i) * sizeof(std::complex<double>);
    std::memcpy(buf, d + 2 * i, bytes);
    __m256d lo, hi;
    noiseLanes(idx, streamBase, key, sigmaV, _mm256_load_pd(buf),
               _mm256_load_pd(buf + 4), &lo, &hi);
    _mm256_store_pd(buf, lo);
    _mm256_store_pd(buf + 4, hi);
    std::memcpy(d + 2 * i, buf, bytes);
  }
}

}  // namespace rfp::signal::detail

#endif  // RFP_X86_KERNELS
