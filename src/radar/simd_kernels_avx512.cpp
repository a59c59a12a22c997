/// \file simd_kernels_avx512.cpp
/// AVX-512F radar kernels: the tone chains' four-lane regime held in one
/// 512-bit vector, and the beamforming pair chain eight angles wide.
/// Compiled with -mavx512f -mavx2 -mfma -ffp-contract=off;
/// runtime-gated by cpuid. Per-lane chains are identical to
/// simd_kernels_avx2.cpp, so outputs are bit-identical to it and to the
/// *FmaRef emulations. No std::complex arithmetic runs in
/// this TU (DESIGN.md Sec. 13).

#include "radar/simd_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

// Spurious -Wmaybe-uninitialized from GCC's unmasked _mm512 permute
// wrappers (GCC PR105593); see fft_kernels_avx512.cpp.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace rfp::radar::detail {

namespace {

/// K chains over dst[0, n), each in one zmm of four lanes with its step
/// broadcast into two more: 3K + 2 of the 32 registers at K = 8. Per
/// four-sample block the accumulator takes the chains in list order,
/// then each chain steps by the fma_complex.h pattern; the last n % 4
/// samples run the same adds in one masked block.
template <std::size_t K>
void toneChainGroup(double* d, std::size_t n, const ToneChain* chains) {
  __m512d p[K], rre[K], rim[K];
#pragma GCC unroll 8
  for (std::size_t c = 0; c < K; ++c) {
    p[c] = _mm512_loadu_pd(reinterpret_cast<const double*>(chains[c].p));
    rre[c] = _mm512_set1_pd(chains[c].step.real());
    rim[c] = _mm512_set1_pd(chains[c].step.imag());
  }
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m512d acc = _mm512_loadu_pd(d + 2 * i);
#pragma GCC unroll 8
    for (std::size_t c = 0; c < K; ++c) {
      acc = _mm512_add_pd(acc, p[c]);
      const __m512d t = _mm512_mul_pd(_mm512_permute_pd(p[c], 0x55), rim[c]);
      p[c] = _mm512_fmaddsub_pd(p[c], rre[c], t);
    }
    _mm512_storeu_pd(d + 2 * i, acc);
  }
  if (i < n) {
    const __mmask8 m = static_cast<__mmask8>((1u << (2 * (n - i))) - 1u);
    __m512d acc = _mm512_maskz_loadu_pd(m, d + 2 * i);
#pragma GCC unroll 8
    for (std::size_t c = 0; c < K; ++c) acc = _mm512_add_pd(acc, p[c]);
    _mm512_mask_storeu_pd(d + 2 * i, m, acc);
  }
}

using GroupFn = void (*)(double*, std::size_t, const ToneChain*);
constexpr GroupFn kGroups[] = {
    &toneChainGroup<1>, &toneChainGroup<2>, &toneChainGroup<3>,
    &toneChainGroup<4>, &toneChainGroup<5>, &toneChainGroup<6>,
    &toneChainGroup<7>, &toneChainGroup<8>};

}  // namespace

void toneAccumChainsAvx512(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count) {
  // The chain starts come from the frame's tone setup call
  // (toneSetupForLevel), which writes its products as separate
  // intrinsics.
  constexpr std::size_t kGroup = 8;
  double* d = reinterpret_cast<double*>(dst);
  for (std::size_t c = 0; c < count; c += kGroup) {
    kGroups[std::min(kGroup, count - c) - 1](d, n, chains + c);
  }
}

namespace {

/// R consecutive rows of the pair chain (simd_kernels.h), eight direct
/// angles per block, lane l holding angle a + l. Each steering load
/// serves all R rows, whose four sums stay in registers across the
/// antenna loop (4R + 4 of the 32 registers: the sums, one steering
/// vector per plane and the two spectrum broadcasts). The block's
/// mirrored cells, angles nAngles - 1 - (a + l) for the first `mirrored`
/// lanes, are reversed in registers and stored from their lowest address
/// up, so no pointer is formed before the row's first cell. The last
/// partial block runs the same chain under masks: lanes outside them
/// load zeros and are never stored.
template <std::size_t R>
void beamformGroup(const Complex* s, const double* wReT, const double* wImT,
                   std::size_t nAnt, std::size_t nAngles, double* out) {
  const std::size_t h = (nAngles + 1) / 2;
  const std::size_t m = nAngles / 2;
  const __m512i laneIds = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  for (std::size_t a = 0; a < h; a += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, h - a);
    const std::size_t mirrored = std::min<std::size_t>(8, m - a);
    const __mmask8 direct = static_cast<__mmask8>((1u << lanes) - 1u);
    __m512d sumA[R], sumB[R], sumC[R], sumD[R];
    {
      const __m512d c = _mm512_maskz_loadu_pd(direct, wReT + a);
      const __m512d sn = _mm512_maskz_loadu_pd(direct, wImT + a);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m512d x = _mm512_set1_pd(s[r * nAnt].real());
        const __m512d y = _mm512_set1_pd(s[r * nAnt].imag());
        sumA[r] = _mm512_mul_pd(x, c);
        sumB[r] = _mm512_mul_pd(y, sn);
        sumC[r] = _mm512_mul_pd(x, sn);
        sumD[r] = _mm512_mul_pd(y, c);
      }
    }
    for (std::size_t k = 1; k < nAnt; ++k) {
      const __m512d c = _mm512_maskz_loadu_pd(direct, wReT + k * h + a);
      const __m512d sn = _mm512_maskz_loadu_pd(direct, wImT + k * h + a);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m512d x = _mm512_set1_pd(s[r * nAnt + k].real());
        const __m512d y = _mm512_set1_pd(s[r * nAnt + k].imag());
        sumA[r] = _mm512_fmadd_pd(x, c, sumA[r]);
        sumB[r] = _mm512_fmadd_pd(y, sn, sumB[r]);
        sumC[r] = _mm512_fmadd_pd(x, sn, sumC[r]);
        sumD[r] = _mm512_fmadd_pd(y, c, sumD[r]);
      }
    }
    // Store lane j of the mirrored run takes lane mirrored - 1 - j.
    const __m512i reverse = _mm512_sub_epi64(
        _mm512_set1_epi64(static_cast<long long>(mirrored) - 1), laneIds);
    const __mmask8 mirror = static_cast<__mmask8>((1u << mirrored) - 1u);
    // Plain-rounded squares and sums, each its own intrinsic (never
    // fused), and NaN cells as kPairNaN, as in the reference.
    const __m512d nan = _mm512_set1_pd(kPairNaN);
    const auto cells = [nan](__m512d power) {
      return _mm512_mask_mov_pd(
          power, _mm512_cmp_pd_mask(power, power, _CMP_UNORD_Q), nan);
    };
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      double* row = out + r * nAngles;
      const __m512d re = _mm512_sub_pd(sumA[r], sumB[r]);
      const __m512d im = _mm512_add_pd(sumC[r], sumD[r]);
      _mm512_mask_storeu_pd(row + a, direct,
                            cells(_mm512_add_pd(_mm512_mul_pd(re, re),
                                                _mm512_mul_pd(im, im))));
      const __m512d mre = _mm512_add_pd(sumA[r], sumB[r]);
      const __m512d mim = _mm512_sub_pd(sumD[r], sumC[r]);
      _mm512_mask_storeu_pd(
          row + nAngles - a - mirrored, mirror,
          _mm512_permutexvar_pd(
              reverse, cells(_mm512_add_pd(_mm512_mul_pd(mre, mre),
                                           _mm512_mul_pd(mim, mim)))));
    }
  }
}

/// Runs \p rows rows in groups of R, the remainder as one smaller group.
template <std::size_t R>
void beamformRowsIn(const Complex* s, std::size_t rows, const double* wReT,
                    const double* wImT, std::size_t nAnt, std::size_t nAngles,
                    double* out) {
  std::size_t r = 0;
  for (; r + R <= rows; r += R) {
    beamformGroup<R>(s + r * nAnt, wReT, wImT, nAnt, nAngles,
                     out + r * nAngles);
  }
  if constexpr (R > 1) {
    if (r < rows) {
      beamformRowsIn<R - 1>(s + r * nAnt, rows - r, wReT, wImT, nAnt,
                            nAngles, out + r * nAngles);
    }
  }
}

}  // namespace

void beamformRowsAvx512(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  beamformRowsIn<4>(s, rows, wReT, wImT, nAnt, nAngles, out);
}

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
