/// \file fft_kernels_avx2.cpp
/// AVX2+FMA butterfly stage pass: two butterflies per 256-bit vector.
/// Compiled with -mavx2 -mfma -ffp-contract=off; runtime-gated by cpuid.
/// The complex product is the vfmaddsub idiom specified by
/// common/fma_complex.h, so the pass is bit-identical to stagePassFmaRef.
/// No std::complex arithmetic runs here (DESIGN.md Sec. 13): every
/// butterfly, the lone one of a length-2 transform included, is written
/// in intrinsics.

#include "signal/fft_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <cstdint>

namespace rfp::signal::detail {

namespace {

/// Two butterflies: lo = u + v*w, hi = u - v*w elementwise over the two
/// complex lanes, with v*w the fma_complex.h pattern: even lanes
/// fma(v.re, w.re, -(v.im*w.im)), odd fma(v.im, w.re, v.re*w.im).
inline void butterfly(__m256d u, __m256d v, __m256d w, __m256d& lo,
                      __m256d& hi) {
  const __m256d wre = _mm256_movedup_pd(w);
  const __m256d wim = _mm256_permute_pd(w, 0xF);
  const __m256d t = _mm256_mul_pd(_mm256_permute_pd(v, 0x5), wim);
  const __m256d vw = _mm256_fmaddsub_pd(v, wre, t);
  lo = _mm256_add_pd(u, vw);
  hi = _mm256_sub_pd(u, vw);
}

}  // namespace

void stagePassAvx2(Complex* a, std::size_t n, std::size_t len,
                   const Complex* stage, bool forward) {
  const std::size_t half = len / 2;
  // Inverse transforms conjugate the forward table on the fly: flip the
  // sign bit of the imaginary (odd) lanes -- exact, like std::conj.
  const __m256d conjMask = forward
                               ? _mm256_setzero_pd()
                               : _mm256_castsi256_pd(_mm256_set_epi64x(
                                     INT64_MIN, 0, INT64_MIN, 0));
  double* d = reinterpret_cast<double*>(a);
  if (half >= 2) {
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; k += 2) {
        const __m256d w = _mm256_xor_pd(
            _mm256_loadu_pd(reinterpret_cast<const double*>(stage + k)),
            conjMask);
        __m256d outLo, outHi;
        butterfly(_mm256_loadu_pd(lo + 2 * k), _mm256_loadu_pd(hi + 2 * k), w,
                  outLo, outHi);
        _mm256_storeu_pd(lo + 2 * k, outLo);
        _mm256_storeu_pd(hi + 2 * k, outHi);
      }
    }
    return;
  }
  // len == 2: every butterfly pairs neighbours (a[2j], a[2j+1]) under
  // stage[0]. Two butterflies per iteration: the 128-bit lane permutes
  // gather u = (a0, a2), v = (a1, a3) and scatter the results back.
  const __m128d w1 = _mm_xor_pd(
      _mm_loadu_pd(reinterpret_cast<const double*>(stage)),
      _mm256_castpd256_pd128(conjMask));
  const __m256d w = _mm256_broadcast_pd(&w1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(d + 2 * i);
    const __m256d y = _mm256_loadu_pd(d + 2 * i + 4);
    __m256d lo, hi;
    butterfly(_mm256_permute2f128_pd(x, y, 0x20),
              _mm256_permute2f128_pd(x, y, 0x31), w, lo, hi);
    _mm256_storeu_pd(d + 2 * i, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(d + 2 * i + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  if (i < n) {  // n == 2: one butterfly in the low 128-bit lane
    __m256d lo, hi;
    butterfly(_mm256_zextpd128_pd256(_mm_loadu_pd(d)),
              _mm256_zextpd128_pd256(_mm_loadu_pd(d + 2)), w, lo, hi);
    _mm_storeu_pd(d, _mm256_castpd256_pd128(lo));
    _mm_storeu_pd(d + 2, _mm256_castpd256_pd128(hi));
  }
}

}  // namespace rfp::signal::detail

#endif  // RFP_X86_KERNELS
