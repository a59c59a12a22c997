/// \file simd_kernels_avx512.cpp
/// AVX-512F radar kernels: the same four-lane regime as the AVX2
/// variants held in one 512-bit vector. Compiled with -mavx512f -mavx2
/// -mfma -ffp-contract=off; runtime-gated by cpuid. Per-lane chains are
/// identical to simd_kernels_avx2.cpp, so outputs are bit-identical to
/// it and to the *FmaRef emulations.

#include "radar/simd_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <utility>

// Spurious -Wmaybe-uninitialized from GCC's unmasked _mm512 permute
// wrappers (GCC PR105593); see fft_kernels_avx512.cpp.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace rfp::radar::detail {

void toneAccumAvx512(Complex* dst, std::size_t n, Complex phasor,
                     Complex rot) {
  const Complex rot2 = rot * rot;
  const Complex rot4 = rot2 * rot2;
  alignas(64) Complex p[4] = {phasor, phasor * rot, phasor * rot2,
                              (phasor * rot) * rot2};
  __m512d pv = _mm512_load_pd(reinterpret_cast<const double*>(p));
  const __m512d rre = _mm512_set1_pd(rot4.real());
  const __m512d rim = _mm512_set1_pd(rot4.imag());
  double* d = reinterpret_cast<double*>(dst);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    _mm512_storeu_pd(d + 2 * i,
                     _mm512_add_pd(_mm512_loadu_pd(d + 2 * i), pv));
    const __m512d t = _mm512_mul_pd(_mm512_permute_pd(pv, 0x55), rim);
    pv = _mm512_fmaddsub_pd(pv, rre, t);
  }
  _mm512_store_pd(reinterpret_cast<double*>(p), pv);
  for (std::size_t j = 0; i + j < n; ++j) dst[i + j] += p[j];
}

void beamformRowAvx512(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  // Eight angle lanes per vector; within a lane the op chain is exactly
  // beamformDotFmaRef + re*re + im*im, so every lane matches the scalar
  // per-angle sweep bit for bit. s[k] broadcasts; the steering factors
  // stream from the transposed deinterleaved planes. The last
  // nAngles % 8 angles run the same chain in one masked iteration: lanes
  // outside the mask load zeros and are never stored.
  for (std::size_t a = 0; a < nAngles; a += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, nAngles - a);
    const __mmask8 m = static_cast<__mmask8>((1u << lanes) - 1u);
    __m512d pre[4], pim[4];
    for (int j = 0; j < 4; ++j) {
      pre[j] = _mm512_setzero_pd();
      pim[j] = _mm512_setzero_pd();
    }
    // fmaComplexMul elementwise for antenna k: re = fma(s.re, w.re,
    // -(s.im*w.im)), im = fma(s.im, w.re, s.re*w.im).
    const auto product = [&](std::size_t k) {
      const __m512d wre = _mm512_maskz_loadu_pd(m, wReT + k * nAngles + a);
      const __m512d wim = _mm512_maskz_loadu_pd(m, wImT + k * nAngles + a);
      const __m512d sre = _mm512_set1_pd(s[k].real());
      const __m512d sim = _mm512_set1_pd(s[k].imag());
      return std::pair{_mm512_fmsub_pd(sre, wre, _mm512_mul_pd(sim, wim)),
                       _mm512_fmadd_pd(sim, wre, _mm512_mul_pd(sre, wim))};
    };
    const std::size_t n4 = nAnt & ~std::size_t{3};
    std::size_t k = 0;
    for (; k < n4; ++k) {
      const auto [cre, cim] = product(k);
      pre[k & 3] = _mm512_add_pd(pre[k & 3], cre);
      pim[k & 3] = _mm512_add_pd(pim[k & 3], cim);
    }
    // Fixed combine (p0 + p2) + (p1 + p3), then the fmaComplexMul tail.
    __m512d accRe = _mm512_add_pd(_mm512_add_pd(pre[0], pre[2]),
                                  _mm512_add_pd(pre[1], pre[3]));
    __m512d accIm = _mm512_add_pd(_mm512_add_pd(pim[0], pim[2]),
                                  _mm512_add_pd(pim[1], pim[3]));
    for (; k < nAnt; ++k) {
      const auto [cre, cim] = product(k);
      accRe = _mm512_add_pd(accRe, cre);
      accIm = _mm512_add_pd(accIm, cim);
    }
    // Plain-rounded |.|^2, separate mul + add (never fused): matches
    // the scalar out[a] = re*re + im*im.
    _mm512_mask_storeu_pd(out + a, m,
                          _mm512_add_pd(_mm512_mul_pd(accRe, accRe),
                                        _mm512_mul_pd(accIm, accIm)));
  }
}

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
