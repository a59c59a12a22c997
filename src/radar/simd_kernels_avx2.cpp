/// \file simd_kernels_avx2.cpp
/// AVX2+FMA radar kernels: two complex lanes per 256-bit vector, two
/// vectors in flight for the four-lane tone chains, four angles per
/// vector in beamforming and four memo misses per vector in the tone
/// setup. Compiled with -mavx2 -mfma -ffp-contract=off; runtime-gated by
/// cpuid. Every complex product of the tone chains is the vfmaddsub
/// idiom specified by common/fma_complex.h, and beamforming and the tone
/// setup run the chains of simd_kernels.h, so every kernel is
/// bit-identical to its *FmaRef emulation. No std::complex arithmetic
/// runs in this TU (DESIGN.md Sec. 13).

#include "radar/simd_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "common/constants.h"
#include "signal/sincos_lanes.h"

namespace rfp::radar::detail {

namespace {

/// K chains over dst[0, n), each as two vectors (lanes 0-1, 2-3) with its
/// step broadcast into two more: 4K + 4 of the 16 registers, so K = 3
/// runs without spills. Per four-sample block each accumulator takes the
/// chains in list order, then each chain steps by the fma_complex.h
/// pattern; the last n % 4 samples run the same adds in one masked
/// block.
template <std::size_t K>
void toneChainGroup(double* d, std::size_t n, const ToneChain* chains) {
  __m256d p01[K], p23[K], rre[K], rim[K];
#pragma GCC unroll 4
  for (std::size_t c = 0; c < K; ++c) {
    const double* pc = reinterpret_cast<const double*>(chains[c].p);
    p01[c] = _mm256_loadu_pd(pc);
    p23[c] = _mm256_loadu_pd(pc + 4);
    rre[c] = _mm256_set1_pd(chains[c].step.real());
    rim[c] = _mm256_set1_pd(chains[c].step.imag());
  }
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    __m256d acc01 = _mm256_loadu_pd(d + 2 * i);
    __m256d acc23 = _mm256_loadu_pd(d + 2 * i + 4);
#pragma GCC unroll 4
    for (std::size_t c = 0; c < K; ++c) {
      acc01 = _mm256_add_pd(acc01, p01[c]);
      acc23 = _mm256_add_pd(acc23, p23[c]);
      const __m256d t01 =
          _mm256_mul_pd(_mm256_permute_pd(p01[c], 0x5), rim[c]);
      const __m256d t23 =
          _mm256_mul_pd(_mm256_permute_pd(p23[c], 0x5), rim[c]);
      p01[c] = _mm256_fmaddsub_pd(p01[c], rre[c], t01);
      p23[c] = _mm256_fmaddsub_pd(p23[c], rre[c], t23);
    }
    _mm256_storeu_pd(d + 2 * i, acc01);
    _mm256_storeu_pd(d + 2 * i + 4, acc23);
  }
  if (i < n) {
    // Doubles 2i .. 2n - 1 are live: lanes below 2(n - i) of the pair.
    const __m256i ids01 = _mm256_set_epi64x(3, 2, 1, 0);
    const __m256i ids23 = _mm256_set_epi64x(7, 6, 5, 4);
    const __m256i live =
        _mm256_set1_epi64x(static_cast<long long>(2 * (n - i)));
    const __m256i m01 = _mm256_cmpgt_epi64(live, ids01);
    const __m256i m23 = _mm256_cmpgt_epi64(live, ids23);
    __m256d acc01 = _mm256_maskload_pd(d + 2 * i, m01);
    __m256d acc23 = _mm256_maskload_pd(d + 2 * i + 4, m23);
#pragma GCC unroll 4
    for (std::size_t c = 0; c < K; ++c) {
      acc01 = _mm256_add_pd(acc01, p01[c]);
      acc23 = _mm256_add_pd(acc23, p23[c]);
    }
    _mm256_maskstore_pd(d + 2 * i, m01, acc01);
    _mm256_maskstore_pd(d + 2 * i + 4, m23, acc23);
  }
}

}  // namespace

void toneAccumChainsAvx2(Complex* dst, std::size_t n, const ToneChain* chains,
                         std::size_t count) {
  // The chain starts come from the frame's tone setup call
  // (toneSetupForLevel), which writes its products as separate
  // intrinsics.
  double* d = reinterpret_cast<double*>(dst);
  std::size_t c = 0;
  for (; c + 3 <= count; c += 3) toneChainGroup<3>(d, n, chains + c);
  if (count - c == 2) toneChainGroup<2>(d, n, chains + c);
  if (count - c == 1) toneChainGroup<1>(d, n, chains + c);
}

namespace {

/// R consecutive rows of the pair chain, four direct angles per block;
/// the AVX-512 twin has the commentary. Two rows per pass hold 4R + 4 =
/// 12 of the 16 registers. The mirrored run is reversed with a variable
/// 32-bit permute, double j of the store taking double mirrored - 1 - j.
template <std::size_t R>
void beamformGroup(const Complex* s, const double* wReT, const double* wImT,
                   std::size_t nAnt, std::size_t nAngles, double* out) {
  const std::size_t h = (nAngles + 1) / 2;
  const std::size_t m = nAngles / 2;
  const __m256i laneIds = _mm256_set_epi64x(3, 2, 1, 0);
  for (std::size_t a = 0; a < h; a += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, h - a);
    const std::size_t mirrored = std::min<std::size_t>(4, m - a);
    const __m256i direct = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(lanes)), laneIds);
    __m256d sumA[R], sumB[R], sumC[R], sumD[R];
    {
      const __m256d c = _mm256_maskload_pd(wReT + a, direct);
      const __m256d sn = _mm256_maskload_pd(wImT + a, direct);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d x = _mm256_set1_pd(s[r * nAnt].real());
        const __m256d y = _mm256_set1_pd(s[r * nAnt].imag());
        sumA[r] = _mm256_mul_pd(x, c);
        sumB[r] = _mm256_mul_pd(y, sn);
        sumC[r] = _mm256_mul_pd(x, sn);
        sumD[r] = _mm256_mul_pd(y, c);
      }
    }
    for (std::size_t k = 1; k < nAnt; ++k) {
      const __m256d c = _mm256_maskload_pd(wReT + k * h + a, direct);
      const __m256d sn = _mm256_maskload_pd(wImT + k * h + a, direct);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d x = _mm256_set1_pd(s[r * nAnt + k].real());
        const __m256d y = _mm256_set1_pd(s[r * nAnt + k].imag());
        sumA[r] = _mm256_fmadd_pd(x, c, sumA[r]);
        sumB[r] = _mm256_fmadd_pd(y, sn, sumB[r]);
        sumC[r] = _mm256_fmadd_pd(x, sn, sumC[r]);
        sumD[r] = _mm256_fmadd_pd(y, c, sumD[r]);
      }
    }
    const __m256i source = _mm256_slli_epi64(
        _mm256_sub_epi64(
            _mm256_set1_epi64x(static_cast<long long>(mirrored) - 1), laneIds),
        1);
    const __m256i reverse = _mm256_or_si256(
        source,
        _mm256_slli_epi64(_mm256_add_epi64(source, _mm256_set1_epi64x(1)), 32));
    const __m256i mirror = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(mirrored)), laneIds);
    const __m256d nan = _mm256_set1_pd(kPairNaN);
    const auto cells = [nan](__m256d power) {
      return _mm256_blendv_pd(power, nan,
                              _mm256_cmp_pd(power, power, _CMP_UNORD_Q));
    };
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      double* row = out + r * nAngles;
      const __m256d re = _mm256_sub_pd(sumA[r], sumB[r]);
      const __m256d im = _mm256_add_pd(sumC[r], sumD[r]);
      _mm256_maskstore_pd(row + a, direct,
                          cells(_mm256_add_pd(_mm256_mul_pd(re, re),
                                              _mm256_mul_pd(im, im))));
      const __m256d mre = _mm256_add_pd(sumA[r], sumB[r]);
      const __m256d mim = _mm256_sub_pd(sumD[r], sumC[r]);
      const __m256d power = cells(
          _mm256_add_pd(_mm256_mul_pd(mre, mre), _mm256_mul_pd(mim, mim)));
      _mm256_maskstore_pd(row + nAngles - a - mirrored, mirror,
                          _mm256_castps_pd(_mm256_permutevar8x32_ps(
                              _mm256_castpd_ps(power), reverse)));
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

void beamformRowsAvx2(const Complex* s, std::size_t rows, const Complex* w,
                      const double* wReT, const double* wImT,
                      std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  beamformRowsIn<2>(s, rows, wReT, wImT, nAnt, nAngles, out);
}

namespace {

/// sin and cos of x per lane: the reduction of simd_kernels.h, then the
/// quarter-turn chain of signal/sincos_lanes.h.
[[gnu::always_inline]] inline void sinCos(__m256d x, __m256d* sinV,
                                          __m256d* cosV) {
  const __m256d shift = _mm256_set1_pd(0x1.8p52);
  const __m256d twoOverPi = _mm256_set1_pd(kTwoOverPi);
  const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(x, twoOverPi), shift);
  const __m256d q = _mm256_sub_pd(shifted, shift);
  __m256d r = _mm256_fnmadd_pd(q, _mm256_set1_pd(kPiOver2Hi), x);
  r = _mm256_fnmadd_pd(q, _mm256_set1_pd(kPiOver2Mid), r);
  r = _mm256_fnmadd_pd(q, _mm256_set1_pd(kPiOver2Lo), r);
  rfp::signal::detail::quarterTurnSinCos(_mm256_mul_pd(r, twoOverPi),
                                         _mm256_castpd_si256(shifted), sinV,
                                         cosV);
}

/// Four lanes of complex values, deinterleaved.
struct Lanes {
  __m256d re, im;
};

/// a * b rounded product by product, (ac - bd, ad + bc): the std::complex
/// product of finite values, one intrinsic per operation.
inline Lanes plainMul(Lanes a, Lanes b) {
  return {_mm256_sub_pd(_mm256_mul_pd(a.re, b.re), _mm256_mul_pd(a.im, b.im)),
          _mm256_add_pd(_mm256_mul_pd(a.re, b.im), _mm256_mul_pd(a.im, b.re))};
}

/// Stores \p v, lane l, as complex value \p j (p[0..3], then step) of
/// *out[l], for the first \p live lanes.
inline void storeField(ToneChain* const* out, std::size_t live, int j,
                       Lanes v) {
  const __m256d lo = _mm256_unpacklo_pd(v.re, v.im);  // lanes 0, 2
  const __m256d hi = _mm256_unpackhi_pd(v.re, v.im);  // lanes 1, 3
  const __m128d lane[4] = {
      _mm256_castpd256_pd128(lo), _mm256_castpd256_pd128(hi),
      _mm256_extractf128_pd(lo, 1), _mm256_extractf128_pd(hi, 1)};
  for (std::size_t l = 0; l < live; ++l) {
    Complex* field = j < 4 ? &out[l]->p[j] : &out[l]->step;
    _mm_storeu_pd(reinterpret_cast<double*>(field), lane[l]);
  }
}

}  // namespace

void toneSetupAvx2(const ToneGeometry& g, const ToneMisses& m,
                   ToneChain* chains, std::size_t stride) {
  const double twoPi = 2.0 * rfp::common::pi();
  const __m256d speedOfLight = _mm256_set1_pd(rfp::common::kSpeedOfLight);
  const __m256d slope = _mm256_set1_pd(g.slopeHzPerS);
  const __m256d twoPiStart = _mm256_set1_pd(twoPi * g.startHz);
  const __m256d twoPiV = _mm256_set1_pd(twoPi);
  const __m256d dt = _mm256_set1_pd(g.sampleIntervalS);
  const __m256i laneIds = _mm256_set_epi64x(3, 2, 1, 0);
  for (std::size_t i = 0; i < m.count; i += 4) {
    // The last count % 4 misses run as one block whose idle lanes load
    // zeros and are never stored.
    const std::size_t live = std::min<std::size_t>(4, m.count - i);
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(live)), laneIds);
    const auto load = [&](const std::vector<double>& v) {
      return _mm256_maskload_pd(v.data() + i, mask);
    };
    const __m256d x = load(m.x), y = load(m.y), radial = load(m.radialOffsetM),
                  amp = load(m.amplitude), beat = load(m.beatFreqOffsetHz),
                  phase = load(m.phaseOffsetRad), dTx = load(m.dTx);
    for (std::size_t k = 0; k < g.rxX.size(); ++k) {
      const __m256d dx = _mm256_sub_pd(x, _mm256_set1_pd(g.rxX[k]));
      const __m256d dy = _mm256_sub_pd(y, _mm256_set1_pd(g.rxY[k]));
      const __m256d dRx = _mm256_add_pd(
          _mm256_sqrt_pd(_mm256_fmadd_pd(dx, dx, _mm256_mul_pd(dy, dy))),
          radial);
      const __m256d tau = _mm256_div_pd(_mm256_add_pd(dTx, dRx), speedOfLight);
      const __m256d beatHz = _mm256_add_pd(_mm256_mul_pd(slope, tau), beat);
      const __m256d basePhase =
          _mm256_add_pd(_mm256_mul_pd(twoPiStart, tau), phase);
      __m256d sinPhase, cosPhase;
      sinCos(basePhase, &sinPhase, &cosPhase);
      const Lanes phasor{_mm256_mul_pd(amp, cosPhase),
                         _mm256_mul_pd(amp, sinPhase)};
      Lanes rot;
      sinCos(_mm256_mul_pd(_mm256_mul_pd(twoPiV, beatHz), dt), &rot.im,
             &rot.re);
      const Lanes rot2 = plainMul(rot, rot);
      const Lanes p1 = plainMul(phasor, rot);
      ToneChain* out[4];
      for (std::size_t l = 0; l < live; ++l) {
        out[l] = chains + k * stride + m.column[i + l];
      }
      storeField(out, live, 0, phasor);
      storeField(out, live, 1, p1);
      storeField(out, live, 2, plainMul(phasor, rot2));
      storeField(out, live, 3, plainMul(p1, rot2));
      storeField(out, live, 4, plainMul(rot2, rot2));
    }
  }
}

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
