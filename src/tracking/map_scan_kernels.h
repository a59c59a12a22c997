#pragma once

/// \file map_scan_kernels.h
/// Internal declarations of the per-ISA map-scan kernels behind
/// PeakDetector's noise floor and threshold sweep (DESIGN.md Sec. 13).
/// Exposed as a header so test_kernels can drive every level
/// explicitly.
///
/// The kernels compare and copy cells; they do no floating-point
/// arithmetic. Bit patterns are compared as unsigned integers and values
/// with ordered, non-signalling `>` (false when either side is NaN), so
/// every level returns the same bits by construction:
///  - *Scalar: the portable loops, run at sse2 and avx2_fma.
///  - *Avx512: eight cells per 512-bit vector, memcmp-tested against the
///    scalar forms.

#include <cstddef>
#include <cstdint>

#include "common/cpuid.h"

namespace rfp::tracking::detail {

/// Smallest and largest bit pattern of a set of cells.
struct BitRange {
  std::uint64_t lo;
  std::uint64_t hi;
};

/// Scans a row-major map of \p rows x \p cols cells: returns the smallest
/// and largest bit pattern of all of them ({~0, 0} for no cells) and
/// writes each row's largest pattern to rowMax[r] (0 for an empty row).
using MinMaxRowsFn = BitRange (*)(const double* cells, std::size_t rows,
                                  std::size_t cols, std::uint64_t* rowMax);

/// One pass of a radix step over its cells (see ScanRowsFn).
struct RowScan {
  std::size_t below;   ///< cells whose pattern is below the bracket
  std::size_t inBand;  ///< cells inside it, copied to out
  BitRange range;      ///< smallest and largest pattern of every cell
};

/// Scans a row-major block of \p rows x \p cols cells against the
/// bracket [lo, lo + width) of bit patterns: counts the cells below it
/// (b < lo, unsigned), copies, in order, those inside it
/// (b - lo < width, unsigned) to out, returns both counts with the
/// smallest and largest pattern of every cell ({~0, 0} for no cells) and,
/// when \p rowMax is not null, writes each row's largest pattern to
/// rowMax[r] (0 for an empty row). \p out must hold rows x cols cells
/// and may equal \p cells; its entries from inBand on are unspecified.
using ScanRowsFn = RowScan (*)(const double* cells, std::size_t rows,
                               std::size_t cols, std::uint64_t lo,
                               std::uint64_t width, double* out,
                               std::uint64_t* rowMax);

/// Interior local-maximum test of one map row: writes, in ascending
/// order, every column a in [1, cols - 1) with row[a] > threshold and no
/// neighbour among up[a-1..a+1], row[a-1], row[a+1] and down[a-1..a+1]
/// greater than row[a], and returns how many there are. \p out must hold
/// cols - 2 entries (none when cols < 3). Border columns are the
/// caller's.
using LocalMaxRowFn = std::size_t (*)(const double* up, const double* row,
                                      const double* down, std::size_t cols,
                                      double threshold, std::size_t* out);

/// One level's kernels; they switch together.
struct MapScanKernels {
  MinMaxRowsFn minMaxRows;
  ScanRowsFn scanRows;
  LocalMaxRowFn localMaxRow;
};

/// The scalar forms (map_scan_kernels.cpp): the sse2 and avx2_fma kernels
/// and the memcmp oracle of the vector ones.
BitRange minMaxRowsScalar(const double* cells, std::size_t rows,
                          std::size_t cols, std::uint64_t* rowMax);
RowScan scanRowsScalar(const double* cells, std::size_t rows,
                       std::size_t cols, std::uint64_t lo, std::uint64_t width,
                       double* out, std::uint64_t* rowMax);
std::size_t localMaxRowScalar(const double* up, const double* row,
                              const double* down, std::size_t cols,
                              double threshold, std::size_t* out);

#if defined(RFP_X86_KERNELS)
/// Eight cells per 512-bit vector, the last cols % 8 of a row as one
/// masked iteration (map_scan_kernels_avx512.cpp).
BitRange minMaxRowsAvx512(const double* cells, std::size_t rows,
                          std::size_t cols, std::uint64_t* rowMax);
RowScan scanRowsAvx512(const double* cells, std::size_t rows,
                       std::size_t cols, std::uint64_t lo, std::uint64_t width,
                       double* out, std::uint64_t* rowMax);
std::size_t localMaxRowAvx512(const double* up, const double* row,
                              const double* down, std::size_t cols,
                              double threshold, std::size_t* out);
#endif

/// The kernels for \p level (the scalar forms below avx512, or when the
/// vector TU is not compiled in).
const MapScanKernels& mapScanKernelsForLevel(
    rfp::common::simd::KernelLevel level);

}  // namespace rfp::tracking::detail
