/// \file simd_kernels_avx2.cpp
/// AVX2+FMA radar kernels: two complex lanes per 256-bit vector, two
/// vectors in flight for the four-lane regime, and four memo misses per
/// vector in the tone setup. Compiled with -mavx2 -mfma
/// -ffp-contract=off; runtime-gated by cpuid. Every complex product of
/// the chains and beamforming kernels is the vfmaddsub idiom specified
/// by common/fma_complex.h, and the tone setup runs the chain of
/// simd_kernels.h, so every kernel is bit-identical to its *FmaRef
/// emulation. No std::complex arithmetic runs in this TU (DESIGN.md
/// Sec. 13).

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

/// Four angle lanes of complex values, deinterleaved.
struct Lanes {
  __m256d re, im;
};

inline Lanes add(Lanes acc, Lanes c) {
  return {_mm256_add_pd(acc.re, c.re), _mm256_add_pd(acc.im, c.im)};
}

/// fmaComplexMul(s, w) elementwise with s broadcast.
inline Lanes product(const Complex& s, Lanes w) {
  const __m256d sre = _mm256_set1_pd(s.real());
  const __m256d sim = _mm256_set1_pd(s.imag());
  return {_mm256_fmsub_pd(sre, w.re, _mm256_mul_pd(sim, w.im)),
          _mm256_fmadd_pd(sim, w.re, _mm256_mul_pd(sre, w.im))};
}

/// R consecutive rows, four angle lanes at a time; per-lane chain
/// identical to beamformRowsFmaRef and kManyBlocks as in the AVX-512 twin,
/// which has the lane commentary. The last nAngles % 4 angles run the
/// same chain in one masked iteration: lanes outside the mask load zeros
/// and are never stored.
template <std::size_t R, bool kManyBlocks>
void beamformGroup(const Complex* s, const double* wReT, const double* wImT,
                   std::size_t nAnt, std::size_t nAngles, double* out) {
  const __m256i laneIds = _mm256_set_epi64x(3, 2, 1, 0);
  const std::size_t n4 = nAnt & ~std::size_t{3};
  for (std::size_t a = 0; a < nAngles; a += 4) {
    const std::size_t lanes = std::min<std::size_t>(4, nAngles - a);
    const __m256i m = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(lanes)), laneIds);
    const auto steer = [&](std::size_t k) {
      return Lanes{_mm256_maskload_pd(wReT + k * nAngles + a, m),
                   _mm256_maskload_pd(wImT + k * nAngles + a, m)};
    };
    Lanes acc[R];
    std::size_t k;
    if (n4 == 0) {
      const Lanes w0 = steer(0);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) acc[r] = product(s[r * nAnt], w0);
      k = 1;
    } else {
      Lanes p0[R], p1[R], p2[R], p3[R];
      {
        const Lanes w0 = steer(0), w1 = steer(1), w2 = steer(2),
                    w3 = steer(3);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
          const Complex* sr = s + r * nAnt;
          p0[r] = product(sr[0], w0);
          p1[r] = product(sr[1], w1);
          p2[r] = product(sr[2], w2);
          p3[r] = product(sr[3], w3);
        }
      }
      k = 4;
      if constexpr (kManyBlocks) {
        for (; k < n4; k += 4) {
          const Lanes w0 = steer(k), w1 = steer(k + 1), w2 = steer(k + 2),
                      w3 = steer(k + 3);
#pragma GCC unroll 4
          for (std::size_t r = 0; r < R; ++r) {
            const Complex* sr = s + r * nAnt + k;
            p0[r] = add(p0[r], product(sr[0], w0));
            p1[r] = add(p1[r], product(sr[1], w1));
            p2[r] = add(p2[r], product(sr[2], w2));
            p3[r] = add(p3[r], product(sr[3], w3));
          }
        }
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = add(add(p0[r], p2[r]), add(p1[r], p3[r]));
      }
    }
    for (; k < nAnt; ++k) {
      const Lanes wk = steer(k);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = add(acc[r], product(s[r * nAnt + k], wk));
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm256_maskstore_pd(out + r * nAngles + a, m,
                          _mm256_add_pd(_mm256_mul_pd(acc[r].re, acc[r].re),
                                        _mm256_mul_pd(acc[r].im, acc[r].im)));
    }
  }
}

/// Runs \p rows rows in groups of R, the remainder as one smaller group.
template <std::size_t R, bool kManyBlocks>
void beamformRowsIn(const Complex* s, std::size_t rows, const double* wReT,
                    const double* wImT, std::size_t nAnt, std::size_t nAngles,
                    double* out) {
  std::size_t r = 0;
  for (; r + R <= rows; r += R) {
    beamformGroup<R, kManyBlocks>(s + r * nAnt, wReT, wImT, nAnt, nAngles,
                                  out + r * nAngles);
  }
  if constexpr (R > 1) {
    if (r < rows) {
      beamformRowsIn<R - 1, kManyBlocks>(s + r * nAnt, rows - r, wReT, wImT,
                                         nAnt, nAngles, out + r * nAngles);
    }
  }
}

}  // namespace

void beamformRowsAvx2(const Complex* s, std::size_t rows, const Complex* w,
                      const double* wReT, const double* wImT,
                      std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  // Sixteen registers: two rows of one antenna block, or one row whose
  // partial sums (8 registers) live across the block loop.
  if (nAnt < 8) {
    beamformRowsIn<2, false>(s, rows, wReT, wImT, nAnt, nAngles, out);
  } else {
    beamformRowsIn<1, true>(s, rows, wReT, wImT, nAnt, nAngles, out);
  }
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
