/// \file gemm_kernels_avx2.cpp
/// 4x4 AVX2+FMA GEMM micro-tile. Compiled with -mavx2 -mfma
/// -ffp-contract=off (CMakeLists.txt): the *only* fused operations are
/// the explicit _mm256_fmadd_pd calls below, so the kernel's rounding
/// behaviour is exactly the documented FMA-regime spec -- each output
/// element is one k-ascending fma chain (referenceGemmForLevel), and the
/// alpha writeback uses separate mul+add roundings like every other
/// level. Runtime-gated by cpuid: this TU's code never executes on a
/// host without AVX2+FMA.

#include "linalg/gemm_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

namespace rfp::linalg::detail {

void microKernelAvx2(double* c, std::size_t ldc, const double* ap,
                     const double* bp, std::size_t kDim, std::size_t mr,
                     std::size_t nr, double alpha) {
  constexpr std::size_t kMr = 4;
  constexpr std::size_t kNr = 4;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kDim; ++k) {
    const __m256d b = _mm256_loadu_pd(bp + k * kNr);
    const double* arow = ap + k * kMr;
    acc0 = _mm256_fmadd_pd(_mm256_set1_pd(arow[0]), b, acc0);
    acc1 = _mm256_fmadd_pd(_mm256_set1_pd(arow[1]), b, acc1);
    acc2 = _mm256_fmadd_pd(_mm256_set1_pd(arow[2]), b, acc2);
    acc3 = _mm256_fmadd_pd(_mm256_set1_pd(arow[3]), b, acc3);
  }
  // Writeback through a stack spill keeps the edge-tile path and the
  // full-tile path on the same per-element `c += alpha * acc` roundings.
  alignas(32) double acc[kMr][kNr];
  _mm256_store_pd(acc[0], acc0);
  _mm256_store_pd(acc[1], acc1);
  _mm256_store_pd(acc[2], acc2);
  _mm256_store_pd(acc[3], acc3);
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
