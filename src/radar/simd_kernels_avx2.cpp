/// \file simd_kernels_avx2.cpp
/// AVX2+FMA radar kernels: two complex lanes per 256-bit vector, two
/// vectors in flight for the four-lane regime. Compiled with -mavx2
/// -mfma -ffp-contract=off; runtime-gated by cpuid. Every complex
/// product is the vfmaddsub idiom specified by common/fma_complex.h,
/// so both kernels are bit-identical to their *FmaRef emulations.

#include "radar/simd_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <utility>

namespace rfp::radar::detail {

void toneAccumAvx2(Complex* dst, std::size_t n, Complex phasor, Complex rot) {
  // Lane prologue in plain complex arithmetic (this TU has
  // -ffp-contract=off, so it matches the baseline-TU emulation bit for
  // bit).
  const Complex rot2 = rot * rot;
  const Complex rot4 = rot2 * rot2;
  alignas(32) Complex p[4] = {phasor, phasor * rot, phasor * rot2,
                              (phasor * rot) * rot2};
  __m256d p01 = _mm256_load_pd(reinterpret_cast<const double*>(p));
  __m256d p23 = _mm256_load_pd(reinterpret_cast<const double*>(p + 2));
  const __m256d rre = _mm256_set1_pd(rot4.real());
  const __m256d rim = _mm256_set1_pd(rot4.imag());
  double* d = reinterpret_cast<double*>(dst);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    _mm256_storeu_pd(d + 2 * i,
                     _mm256_add_pd(_mm256_loadu_pd(d + 2 * i), p01));
    _mm256_storeu_pd(d + 2 * i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(d + 2 * i + 4), p23));
    // p *= rot4, the fma_complex.h pattern with a broadcast multiplier.
    const __m256d t01 = _mm256_mul_pd(_mm256_permute_pd(p01, 0x5), rim);
    const __m256d t23 = _mm256_mul_pd(_mm256_permute_pd(p23, 0x5), rim);
    p01 = _mm256_fmaddsub_pd(p01, rre, t01);
    p23 = _mm256_fmaddsub_pd(p23, rre, t23);
  }
  _mm256_store_pd(reinterpret_cast<double*>(p), p01);
  _mm256_store_pd(reinterpret_cast<double*>(p + 2), p23);
  for (std::size_t j = 0; i + j < n; ++j) dst[i + j] += p[j];
}

void beamformRowAvx2(const Complex* s, const Complex* w, const double* wReT,
                     const double* wImT, std::size_t nAnt,
                     std::size_t nAngles, double* out) {
  (void)w;
  // Four angle lanes per vector; per-lane chain identical to
  // beamformRowFmaRef (see the AVX-512 twin for the lane commentary).
  // The last nAngles % 4 angles run the same chain in one masked
  // iteration: lanes outside the mask load zeros and are never stored.
  const __m256i laneIds = _mm256_set_epi64x(3, 2, 1, 0);
  const std::size_t n4 = nAnt & ~std::size_t{3};
  for (std::size_t a = 0; a < nAngles; a += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, nAngles - a);
    const __m256i m = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(lanes)), laneIds);
    __m256d pre[4], pim[4];
    for (int j = 0; j < 4; ++j) {
      pre[j] = _mm256_setzero_pd();
      pim[j] = _mm256_setzero_pd();
    }
    const auto product = [&](std::size_t k) {
      const __m256d wre = _mm256_maskload_pd(wReT + k * nAngles + a, m);
      const __m256d wim = _mm256_maskload_pd(wImT + k * nAngles + a, m);
      const __m256d sre = _mm256_set1_pd(s[k].real());
      const __m256d sim = _mm256_set1_pd(s[k].imag());
      return std::pair{_mm256_fmsub_pd(sre, wre, _mm256_mul_pd(sim, wim)),
                       _mm256_fmadd_pd(sim, wre, _mm256_mul_pd(sre, wim))};
    };
    std::size_t k = 0;
    for (; k < n4; ++k) {
      const auto [cre, cim] = product(k);
      pre[k & 3] = _mm256_add_pd(pre[k & 3], cre);
      pim[k & 3] = _mm256_add_pd(pim[k & 3], cim);
    }
    __m256d accRe = _mm256_add_pd(_mm256_add_pd(pre[0], pre[2]),
                                  _mm256_add_pd(pre[1], pre[3]));
    __m256d accIm = _mm256_add_pd(_mm256_add_pd(pim[0], pim[2]),
                                  _mm256_add_pd(pim[1], pim[3]));
    for (; k < nAnt; ++k) {
      const auto [cre, cim] = product(k);
      accRe = _mm256_add_pd(accRe, cre);
      accIm = _mm256_add_pd(accIm, cim);
    }
    _mm256_maskstore_pd(out + a, m,
                        _mm256_add_pd(_mm256_mul_pd(accRe, accRe),
                                      _mm256_mul_pd(accIm, accIm)));
  }
}

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
