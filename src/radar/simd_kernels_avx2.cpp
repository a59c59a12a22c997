/// \file simd_kernels_avx2.cpp
/// AVX2+FMA radar kernels: two complex lanes per 256-bit vector, two
/// vectors in flight for the four-lane regime. Compiled with -mavx2
/// -mfma -ffp-contract=off; runtime-gated by cpuid. Every complex
/// product is the vfmaddsub idiom specified by common/fma_complex.h,
/// so both kernels are bit-identical to their *FmaRef emulations. No
/// std::complex arithmetic runs in this TU (DESIGN.md Sec. 13).

#include "radar/simd_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

namespace rfp::radar::detail {

void toneAccumAvx2(Complex* dst, std::size_t n, Complex phasor, Complex rot) {
  // The lane prologue comes from the baseline TU (toneLanes): computed
  // here, GCC would fuse its complex products.
  const ToneLanes lanes = toneLanes(phasor, rot);
  const double* p = reinterpret_cast<const double*>(lanes.p);
  __m256d p01 = _mm256_loadu_pd(p);
  __m256d p23 = _mm256_loadu_pd(p + 4);
  const __m256d rre = _mm256_set1_pd(lanes.rot4.real());
  const __m256d rim = _mm256_set1_pd(lanes.rot4.imag());
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
  // The last n % 4 samples take the leading lanes, added with intrinsics
  // like the rest (no std::complex arithmetic in this TU).
  alignas(32) double tail[8];
  _mm256_store_pd(tail, p01);
  _mm256_store_pd(tail + 4, p23);
  for (std::size_t j = 0; i + j < n; ++j) {
    double* dj = d + 2 * (i + j);
    _mm_storeu_pd(dj, _mm_add_pd(_mm_loadu_pd(dj), _mm_load_pd(tail + 2 * j)));
  }
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

}  // namespace rfp::radar::detail

#endif  // RFP_X86_KERNELS
