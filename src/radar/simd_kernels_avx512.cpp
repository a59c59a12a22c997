/// \file simd_kernels_avx512.cpp
/// AVX-512F radar kernels: the same four-lane regime as the AVX2
/// variants held in one 512-bit vector. Compiled with -mavx512f -mavx2
/// -mfma -ffp-contract=off; runtime-gated by cpuid. Per-lane chains are
/// identical to simd_kernels_avx2.cpp, so outputs are bit-identical to
/// it and to the *FmaRef emulations. No std::complex arithmetic runs in
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

/// Eight angle lanes of complex values, deinterleaved.
struct Lanes {
  __m512d re, im;
};

inline Lanes add(Lanes acc, Lanes c) {
  return {_mm512_add_pd(acc.re, c.re), _mm512_add_pd(acc.im, c.im)};
}

/// fmaComplexMul(s, w) elementwise with s broadcast: re = fma(s.re, w.re,
/// -(s.im*w.im)), im = fma(s.im, w.re, s.re*w.im).
inline Lanes product(const Complex& s, Lanes w) {
  const __m512d sre = _mm512_set1_pd(s.real());
  const __m512d sim = _mm512_set1_pd(s.imag());
  return {_mm512_fmsub_pd(sre, w.re, _mm512_mul_pd(sim, w.im)),
          _mm512_fmadd_pd(sim, w.re, _mm512_mul_pd(sre, w.im))};
}

/// R consecutive rows, eight angle lanes at a time. Within a lane the op
/// chain is exactly beamformDotFmaRef + re*re + im*im, so every lane of
/// every row matches the scalar per-angle sweep bit for bit; each
/// steering load serves all R rows. The last nAngles % 8 angles run the
/// same chain in one masked iteration: lanes outside the mask load zeros
/// and are never stored. kManyBlocks admits nAnt >= 8, where the partial
/// sums run over more than one block of four antennas and stay live
/// across the block loop (8 registers per row); without it nAnt must be
/// below 8, and no register has to survive a loop.
template <std::size_t R, bool kManyBlocks>
void beamformGroup(const Complex* s, const double* wReT, const double* wImT,
                   std::size_t nAnt, std::size_t nAngles, double* out) {
  const std::size_t n4 = nAnt & ~std::size_t{3};
  for (std::size_t a = 0; a < nAngles; a += 8) {
    const std::size_t lanes = std::min<std::size_t>(8, nAngles - a);
    const __mmask8 m = static_cast<__mmask8>((1u << lanes) - 1u);
    const auto steer = [&](std::size_t k) {
      return Lanes{_mm512_maskz_loadu_pd(m, wReT + k * nAngles + a),
                   _mm512_maskz_loadu_pd(m, wImT + k * nAngles + a)};
    };
    Lanes acc[R];
    std::size_t k;
    if (n4 == 0) {
      const Lanes w0 = steer(0);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) acc[r] = product(s[r * nAnt], w0);
      k = 1;
    } else {
      // Partial sum j takes antennas k == j mod 4 and starts from antenna
      // j's product (no +0 seed); the antenna loop is unrolled by four
      // so each partial sum is a named register, never an indexed array.
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
      // Fixed combine (p0 + p2) + (p1 + p3), then the fmaComplexMul tail.
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
    // Plain-rounded |.|^2, separate mul + add (never fused): matches the
    // scalar re*re + im*im.
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      _mm512_mask_storeu_pd(out + r * nAngles + a, m,
                            _mm512_add_pd(_mm512_mul_pd(acc[r].re, acc[r].re),
                                          _mm512_mul_pd(acc[r].im, acc[r].im)));
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

void beamformRowsAvx512(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  // Four rows with a second antenna block would need all 32 registers for
  // their partial sums alone, so arrays of 8 or more antennas run two rows
  // at a time.
  if (nAnt < 8) {
    beamformRowsIn<4, false>(s, rows, wReT, wImT, nAnt, nAngles, out);
  } else {
    beamformRowsIn<2, true>(s, rows, wReT, wImT, nAnt, nAngles, out);
  }
}

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
