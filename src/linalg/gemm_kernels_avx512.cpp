/// \file gemm_kernels_avx512.cpp
/// 8x8 AVX-512F GEMM micro-tile. Compiled with -mavx512f
/// -ffp-contract=off; runtime-gated by cpuid. Same numeric regime as the
/// AVX2 tile: every output element is one k-ascending fused
/// multiply-add chain, so despite the wider tile the result is
/// bit-identical to microKernelAvx2 and referenceGemmForLevel element for
/// element -- tile shape changes which elements are computed together,
/// never the per-element operation sequence (DESIGN.md Sec. 13).

#include "linalg/gemm_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

namespace rfp::linalg::detail {

void microKernelAvx512(double* c, std::size_t ldc, const double* ap,
                       const double* bp, std::size_t kDim, std::size_t mr,
                       std::size_t nr, double alpha) {
  constexpr std::size_t kMr = 8;
  constexpr std::size_t kNr = 8;
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  __m512d acc4 = _mm512_setzero_pd();
  __m512d acc5 = _mm512_setzero_pd();
  __m512d acc6 = _mm512_setzero_pd();
  __m512d acc7 = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kDim; ++k) {
    const __m512d b = _mm512_loadu_pd(bp + k * kNr);
    const double* arow = ap + k * kMr;
    acc0 = _mm512_fmadd_pd(_mm512_set1_pd(arow[0]), b, acc0);
    acc1 = _mm512_fmadd_pd(_mm512_set1_pd(arow[1]), b, acc1);
    acc2 = _mm512_fmadd_pd(_mm512_set1_pd(arow[2]), b, acc2);
    acc3 = _mm512_fmadd_pd(_mm512_set1_pd(arow[3]), b, acc3);
    acc4 = _mm512_fmadd_pd(_mm512_set1_pd(arow[4]), b, acc4);
    acc5 = _mm512_fmadd_pd(_mm512_set1_pd(arow[5]), b, acc5);
    acc6 = _mm512_fmadd_pd(_mm512_set1_pd(arow[6]), b, acc6);
    acc7 = _mm512_fmadd_pd(_mm512_set1_pd(arow[7]), b, acc7);
  }
  alignas(64) double acc[kMr][kNr];
  _mm512_store_pd(acc[0], acc0);
  _mm512_store_pd(acc[1], acc1);
  _mm512_store_pd(acc[2], acc2);
  _mm512_store_pd(acc[3], acc3);
  _mm512_store_pd(acc[4], acc4);
  _mm512_store_pd(acc[5], acc5);
  _mm512_store_pd(acc[6], acc6);
  _mm512_store_pd(acc[7], acc7);
  if (alpha == 1.0) {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += acc[ir][jr];
      }
    }
  } else {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += alpha * acc[ir][jr];
      }
    }
  }
}

}  // namespace rfp::linalg::detail

#endif  // RFP_X86_KERNELS
