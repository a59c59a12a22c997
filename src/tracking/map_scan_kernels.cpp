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

RowScan scanRowsScalar(const double* cells, std::size_t rows,
                       std::size_t cols, std::uint64_t lo, std::uint64_t width,
                       double* out, std::uint64_t* rowMax) {
  // Branch-free: every cell is stored, and the count advances past the
  // ones inside the bracket.
  RowScan scan{0, 0, {~0ull, 0}};
  for (std::size_t r = 0; r < rows; ++r) {
    const double* p = cells + r * cols;
    std::uint64_t top = 0;
    for (std::size_t i = 0; i < cols; ++i) {
      const double v = p[i];
      const std::uint64_t b = std::bit_cast<std::uint64_t>(v);
      scan.range.lo = std::min(scan.range.lo, b);
      top = std::max(top, b);
      scan.below += b < lo;
      out[scan.inBand] = v;
      scan.inBand += b - lo < width;
    }
    if (rowMax != nullptr) rowMax[r] = top;
    scan.range.hi = std::max(scan.range.hi, top);
  }
  return scan;
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
                                          &scanRowsScalar,
                                          &localMaxRowScalar};
#if defined(RFP_X86_KERNELS)
  static constexpr MapScanKernels kAvx512{&minMaxRowsAvx512,
                                          &scanRowsAvx512,
                                          &localMaxRowAvx512};
  if (level == KernelLevel::kAvx512) return kAvx512;
#else
  (void)level;
#endif
  return kScalar;
}

}  // namespace rfp::tracking::detail
