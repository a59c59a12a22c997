/// \file map_scan_kernels_avx512.cpp
/// AVX-512F map-scan kernels: eight cells per 512-bit vector, the last
/// partial vector as one masked iteration. Compiled with -mavx512f;
/// runtime-gated by cpuid. They compare and copy only, so their outputs
/// equal the scalar forms' bit for bit.

#include "tracking/map_scan_kernels.h"

#if defined(RFP_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <bit>

// Spurious -Wmaybe-uninitialized from GCC's _mm512_reduce_* wrappers
// (GCC PR105593); see signal/fft_kernels_avx512.cpp.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace rfp::tracking::detail {

namespace {

/// The low \p lanes bits set (lanes <= 8).
inline __mmask8 firstLanes(std::size_t lanes) {
  return static_cast<__mmask8>((1u << lanes) - 1u);
}

inline std::size_t countOf(__mmask8 m) {
  return static_cast<std::size_t>(std::popcount(static_cast<unsigned>(m)));
}

}  // namespace

BitRange minMaxRowsAvx512(const double* cells, std::size_t rows,
                          std::size_t cols, std::uint64_t* rowMax) {
  __m512i lo = _mm512_set1_epi64(-1);
  __m512i hi = _mm512_setzero_si512();
  const std::size_t body = cols - cols % 8;
  const __mmask8 tail = firstLanes(cols % 8);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* p = cells + r * cols;
    __m512i top = _mm512_setzero_si512();
    for (std::size_t i = 0; i < body; i += 8) {
      const __m512i b = _mm512_loadu_si512(p + i);
      lo = _mm512_min_epu64(lo, b);
      top = _mm512_max_epu64(top, b);
    }
    if (tail != 0) {
      // Idle lanes load 0, which no maximum loses to; the minimum keeps
      // its own lanes there.
      const __m512i b = _mm512_maskz_loadu_epi64(tail, p + body);
      lo = _mm512_mask_min_epu64(lo, tail, lo, b);
      top = _mm512_max_epu64(top, b);
    }
    rowMax[r] = _mm512_reduce_max_epu64(top);
    hi = _mm512_max_epu64(hi, top);
  }
  return {_mm512_reduce_min_epu64(lo), _mm512_reduce_max_epu64(hi)};
}

RowScan scanRowsAvx512(const double* cells, std::size_t rows,
                       std::size_t cols, std::uint64_t lo, std::uint64_t width,
                       double* out, std::uint64_t* rowMax) {
  const __m512i vlo = _mm512_set1_epi64(static_cast<long long>(lo));
  const __m512i vwidth = _mm512_set1_epi64(static_cast<long long>(width));
  const __m512i one = _mm512_set1_epi64(1);
  __m512i below = _mm512_setzero_si512();
  __m512i least = _mm512_set1_epi64(-1);
  __m512i most = _mm512_setzero_si512();
  std::size_t count = 0;
  const std::size_t body = cols - cols % 8;
  const __mmask8 tail = firstLanes(cols % 8);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* p = cells + r * cols;
    __m512i top = _mm512_setzero_si512();
    for (std::size_t i = 0; i < body; i += 8) {
      const __m512i b = _mm512_loadu_si512(p + i);
      least = _mm512_min_epu64(least, b);
      top = _mm512_max_epu64(top, b);
      below = _mm512_mask_add_epi64(below, _mm512_cmplt_epu64_mask(b, vlo),
                                    below, one);
      const __mmask8 in =
          _mm512_cmplt_epu64_mask(_mm512_sub_epi64(b, vlo), vwidth);
      // A full store of the packed lanes, with no branch on an empty mask:
      // which vectors hold a bracket cell follows the map, and a branch on
      // it mispredicts. The store covers out[count, count + 8), and
      // count <= r * cols + i, so it stays inside the first rows * cols
      // cells and, in place, overwrites only cells already loaded.
      _mm512_storeu_si512(out + count, _mm512_maskz_compress_epi64(in, b));
      count += countOf(in);
    }
    if (tail != 0) {
      // Idle lanes load 0, which no maximum loses to; the minimum and the
      // counts keep to the live lanes.
      const __m512i b = _mm512_maskz_loadu_epi64(tail, p + body);
      least = _mm512_mask_min_epu64(least, tail, least, b);
      top = _mm512_max_epu64(top, b);
      below = _mm512_mask_add_epi64(
          below, _mm512_mask_cmplt_epu64_mask(tail, b, vlo), below, one);
      const __mmask8 in = _mm512_mask_cmplt_epu64_mask(
          tail, _mm512_sub_epi64(b, vlo), vwidth);
      _mm512_mask_compressstoreu_epi64(out + count, in, b);
      count += countOf(in);
    }
    if (rowMax != nullptr) rowMax[r] = _mm512_reduce_max_epu64(top);
    most = _mm512_max_epu64(most, top);
  }
  return {static_cast<std::size_t>(_mm512_reduce_add_epi64(below)), count,
          {_mm512_reduce_min_epu64(least), _mm512_reduce_max_epu64(most)}};
}

std::size_t localMaxRowAvx512(const double* up, const double* row,
                              const double* down, std::size_t cols,
                              double threshold, std::size_t* out) {
  if (cols < 3) return 0;
  const std::size_t end = cols - 1;
  const __m512d vt = _mm512_set1_pd(threshold);
  const __m512i laneIds = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  std::size_t count = 0;
  for (std::size_t a = 1; a < end; a += 8) {
    const __mmask8 live = firstLanes(std::min<std::size_t>(8, end - a));
    const __m512d v = _mm512_maskz_loadu_pd(live, row + a);
    __mmask8 peak = _mm512_mask_cmp_pd_mask(live, v, vt, _CMP_GT_OQ);
    if (peak == 0) continue;
    // Drop the lanes that one of the eight neighbours exceeds.
    const auto greater = [&](const double* q) {
      return _mm512_mask_cmp_pd_mask(peak, _mm512_maskz_loadu_pd(live, q),
                                     v, _CMP_GT_OQ);
    };
    const unsigned beaten = greater(up + a - 1) | greater(up + a) |
                            greater(up + a + 1) | greater(row + a - 1) |
                            greater(row + a + 1) | greater(down + a - 1) |
                            greater(down + a) | greater(down + a + 1);
    peak = static_cast<__mmask8>(peak & ~beaten);
    const __m512i columns = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(a)), laneIds);
    _mm512_mask_compressstoreu_epi64(out + count, peak, columns);
    count += countOf(peak);
  }
  return count;
}

}  // namespace rfp::tracking::detail

#endif  // RFP_X86_KERNELS
