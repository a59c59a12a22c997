/// \file map_scan_kernels.cpp
/// Baseline TU of the map-scan kernel family: the scalar forms and the
/// per-level registry. Compiled without target feature flags so the
/// scalar forms run on every x86-64 host (DESIGN.md Sec. 13).

#include "tracking/map_scan_kernels.h"

#include <algorithm>
#include <bit>

namespace rfp::tracking::detail {

using rfp::common::simd::KernelLevel;

BitRange minMaxRowsScalar(const double* cells, std::size_t rows,
                          std::size_t cols, std::uint64_t* rowMax) {
  // Four accumulators keep neighbouring cells, which are correlated, off
  // one dependency chain.
  constexpr std::size_t kLanes = 4;
  std::uint64_t lo[kLanes] = {~0ull, ~0ull, ~0ull, ~0ull};
  std::uint64_t hi = 0;
  const std::size_t body = cols - cols % kLanes;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* p = cells + r * cols;
    std::uint64_t top[kLanes] = {};
    for (std::size_t i = 0; i < body; i += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::uint64_t b = std::bit_cast<std::uint64_t>(p[i + l]);
        lo[l] = std::min(lo[l], b);
        top[l] = std::max(top[l], b);
      }
    }
    for (std::size_t i = body; i < cols; ++i) {
      const std::uint64_t b = std::bit_cast<std::uint64_t>(p[i]);
      lo[0] = std::min(lo[0], b);
      top[0] = std::max(top[0], b);
    }
    rowMax[r] = std::max({top[0], top[1], top[2], top[3]});
    hi = std::max(hi, rowMax[r]);
  }
  return {std::min({lo[0], lo[1], lo[2], lo[3]}), hi};
}

std::size_t compactSliceScalar(const double* cells, std::size_t n,
                               std::uint64_t lo, std::uint64_t width,
                               double* out) {
  // Branch-free: every cell is stored, and the count advances past the
  // ones inside the slice.
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = cells[i];
    out[count] = v;
    count += std::bit_cast<std::uint64_t>(v) - lo < width;
  }
  return count;
}

std::size_t localMaxRowScalar(const double* up, const double* row,
                              const double* down, std::size_t cols,
                              double threshold, std::size_t* out) {
  std::size_t count = 0;
  for (std::size_t a = 1; a + 1 < cols; ++a) {
    const double v = row[a];
    if (!(v > threshold)) continue;
    if (up[a - 1] > v || up[a] > v || up[a + 1] > v || row[a - 1] > v ||
        row[a + 1] > v || down[a - 1] > v || down[a] > v || down[a + 1] > v) {
      continue;
    }
    out[count++] = a;
  }
  return count;
}

const MapScanKernels& mapScanKernelsForLevel(KernelLevel level) {
  static constexpr MapScanKernels kScalar{&minMaxRowsScalar,
                                          &compactSliceScalar,
                                          &localMaxRowScalar};
#if defined(RFP_X86_KERNELS)
  static constexpr MapScanKernels kAvx512{&minMaxRowsAvx512,
                                          &compactSliceAvx512,
                                          &localMaxRowAvx512};
  if (level == KernelLevel::kAvx512) return kAvx512;
#else
  (void)level;
#endif
  return kScalar;
}

}  // namespace rfp::tracking::detail
