/// \file fft_kernels_avx512.cpp
/// AVX-512F butterfly stage pass: four butterflies per 512-bit vector.
/// The first two stages (len 2 and 4), whose butterflies pair elements
/// inside one vector, gather their operands from two vectors with
/// in-register permutes; transforms shorter than 8 run the 256-bit pass.
/// Compiled with -mavx512f -ffp-contract=off; runtime-gated by cpuid.
/// Every butterfly runs the same fma_complex.h product pattern as
/// stagePassAvx2, so the whole pass is bit-identical to it (and to
/// stagePassFmaRef) -- vector width only changes how many independent
/// butterflies fly together.

#include "signal/fft_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <cstdint>

// GCC's unmasked _mm512_permute_pd/_mm512_movedup_pd wrappers pass
// _mm512_undefined_pd() as the ignored merge source, which trips
// -Wmaybe-uninitialized (GCC PR105593). Spurious: the undefined lanes
// are fully overwritten.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace rfp::signal::detail {

namespace {

/// Four butterflies: lo = u + v*w, hi = u - v*w elementwise over the four
/// complex lanes, v*w in the fma_complex.h pattern.
inline void butterfly(__m512d u, __m512d v, __m512d w, __m512d& lo,
                      __m512d& hi) {
  const __m512d wre = _mm512_movedup_pd(w);
  const __m512d wim = _mm512_permute_pd(w, 0xFF);
  const __m512d t = _mm512_mul_pd(_mm512_permute_pd(v, 0x55), wim);
  const __m512d vw = _mm512_fmaddsub_pd(v, wre, t);
  lo = _mm512_add_pd(u, vw);
  hi = _mm512_sub_pd(u, vw);
}

/// Flips the sign of the imaginary (odd) lanes where \p mask has them set.
/// Integer xor: _mm512_xor_pd needs AVX512DQ, which this TU does not
/// assume.
inline __m512d conjugated(__m512d w, __m512i mask) {
  return _mm512_castsi512_pd(
      _mm512_xor_epi64(_mm512_castpd_si512(w), mask));
}

}  // namespace

void stagePassAvx512(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward) {
  if (n < 8) {
    stagePassAvx2(a, n, len, stage, forward);
    return;
  }
  const std::size_t half = len / 2;
  // Inverse transforms conjugate the forward table on the fly.
  const __m512i conjMask =
      forward ? _mm512_setzero_si512()
              : _mm512_set_epi64(INT64_MIN, 0, INT64_MIN, 0, INT64_MIN, 0,
                                 INT64_MIN, 0);
  double* d = reinterpret_cast<double*>(a);
  if (half >= 4) {
    for (std::size_t i = 0; i < n; i += len) {
      double* lo = d + 2 * i;
      double* hi = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; k += 4) {
        const __m512d w = conjugated(
            _mm512_loadu_pd(reinterpret_cast<const double*>(stage + k)),
            conjMask);
        __m512d outLo, outHi;
        butterfly(_mm512_loadu_pd(lo + 2 * k), _mm512_loadu_pd(hi + 2 * k), w,
                  outLo, outHi);
        _mm512_storeu_pd(lo + 2 * k, outLo);
        _mm512_storeu_pd(hi + 2 * k, outHi);
      }
    }
    return;
  }
  // len 2 and 4: each iteration loads eight elements x = a[i..i+3],
  // y = a[i+4..i+7] and permutes the four butterflies' u and v operands
  // into one vector each (indices count doubles of x, then of y).
  //   len 2: u = (a0, a2, a4, a6), v = (a1, a3, a5, a7), w = stage[0]
  //          broadcast; results interleave back as (lo0, hi0, lo1, hi1).
  //   len 4: u = (a0, a1, a4, a5), v = (a2, a3, a6, a7), w = (stage[0],
  //          stage[1]) twice; results go back as (lo0, lo1, hi0, hi1).
  __m512i idxU, idxV, idxX, idxY;
  __m512d w;
  if (half == 1) {
    idxU = _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0);
    idxV = _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2);
    idxX = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    idxY = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    w = _mm512_castps_pd(_mm512_broadcast_f32x4(
        _mm_castpd_ps(_mm_loadu_pd(reinterpret_cast<const double*>(stage)))));
  } else {
    idxU = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
    idxV = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
    idxX = idxU;
    idxY = idxV;
    w = _mm512_broadcast_f64x4(
        _mm256_loadu_pd(reinterpret_cast<const double*>(stage)));
  }
  w = conjugated(w, conjMask);
  for (std::size_t i = 0; i < n; i += 8) {
    const __m512d x = _mm512_loadu_pd(d + 2 * i);
    const __m512d y = _mm512_loadu_pd(d + 2 * i + 8);
    __m512d lo, hi;
    butterfly(_mm512_permutex2var_pd(x, idxU, y),
              _mm512_permutex2var_pd(x, idxV, y), w, lo, hi);
    _mm512_storeu_pd(d + 2 * i, _mm512_permutex2var_pd(lo, idxX, hi));
    _mm512_storeu_pd(d + 2 * i + 8, _mm512_permutex2var_pd(lo, idxY, hi));
  }
}

}  // namespace rfp::signal::detail

#endif  // RFP_X86_KERNELS
