#pragma once

/// \file sincos_lanes.h
/// The FMA regime's one sin/cos chain (noise_kernels.h) in intrinsics:
/// sin and cos of pi/2 (q + t), four lanes per __m256d. Each step is the
/// IEEE operation quarterTurnSinCos performs, lane by lane, so every lane
/// is bit-identical to it. The noise kernel and the radar tone setup use
/// this form.
///
/// Include only from vector TUs (*_avx2.cpp). The functions are static:
/// each TU keeps its own copy, built with its own target flags, so no
/// copy with wider instructions can stand in for another at link time.

#include <immintrin.h>

#include "signal/noise_kernels.h"

namespace rfp::signal::detail {

/// Horner over a nine-term coefficient table, highest term first.
[[gnu::always_inline]] static inline __m256d horner9(__m256d x,
                                                      const double (&c)[9]) {
  __m256d p = _mm256_set1_pd(c[8]);
  for (int j = 7; j >= 0; --j) {
    p = _mm256_fmadd_pd(p, x, _mm256_set1_pd(c[j]));
  }
  return p;
}

/// sin and cos of pi/2 (q + t) per lane, for |t| <= 1/2; \p quadrant
/// holds an integer whose low two bits are q's in each lane.
[[gnu::always_inline]] static inline void quarterTurnSinCos(
    __m256d t, __m256i quadrant, __m256d* sinV, __m256d* cosV) {
  const __m256d t2 = _mm256_mul_pd(t, t);
  const __m256d sinT = _mm256_mul_pd(t, horner9(t2, kSinCoef));
  const __m256d cosT = horner9(t2, kCosCoef);
  // blendv keys on each lane's sign bit: odd quadrants swap sin and cos.
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(quadrant, 63));
  const __m256d sinNeg = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(quadrant, _mm256_set1_epi64x(2)), 62));
  const __m256d cosNeg = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_xor_si256(quadrant, _mm256_srli_epi64(quadrant, 1)), 63));
  *sinV = _mm256_xor_pd(_mm256_blendv_pd(sinT, cosT, swap), sinNeg);
  *cosV = _mm256_xor_pd(_mm256_blendv_pd(cosT, sinT, swap), cosNeg);
}

}  // namespace rfp::signal::detail
