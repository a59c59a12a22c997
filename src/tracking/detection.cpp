#include "tracking/detection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/cpuid.h"
#include "common/vec2.h"
#include "tracking/map_scan_kernels.h"

namespace rfp::tracking {

namespace {

/// True when no 8-neighbour of cell (r, a) inside the map exceeds it.
bool isLocalMax(const radar::RangeAngleMap& map, std::size_t r,
                std::size_t a) {
  const std::size_t nA = map.numAngles();
  const double v = map.at(r, a);
  const std::size_t r0 = r > 0 ? r - 1 : r;
  const std::size_t r1 = std::min(r + 1, map.numRanges() - 1);
  const std::size_t a0 = a > 0 ? a - 1 : a;
  const std::size_t a1 = std::min(a + 1, nA - 1);
  for (std::size_t rr = r0; rr <= r1; ++rr) {
    for (std::size_t aa = a0; aa <= a1; ++aa) {
      if (rr == r && aa == a) continue;
      if (map.at(rr, aa) > v) return false;
    }
  }
  return true;
}

/// Bit pattern of +inf. The doubles from +0.0 to +inf are exactly those
/// whose bits do not exceed it, and they order like their bits.
constexpr std::uint64_t kInfBits = 0x7FF0000000000000ull;

/// The value std::nth_element puts at index n / 2 of a copy of the \p n
/// cells at \p p (made in \p buf).
double medianByCopy(const double* p, std::size_t n, std::vector<double>& buf) {
  buf.assign(p, p + n);
  const std::size_t mid = n / 2;
  std::nth_element(buf.begin(), buf.begin() + mid, buf.end());
  return buf[mid];
}

/// Cells in a radix step's strided sample, and the sample ranks its
/// bracket spans on either side of the target's: three standard
/// deviations of the sample median's rank (sqrt(1024) / 2 = 16).
constexpr std::size_t kSampleCells = 1024;
constexpr std::size_t kSampleDelta = 48;

/// The slices of 2^shift patterns from \p lo holding ranks \p rLo <= \p rHi
/// of the \p n cells at \p p (every cell must fall in one of 256 slices).
/// Four sub-histograms keep neighbouring cells, which are correlated, off
/// one counter; 32-bit counts, because a lane of a map with 2^18 or more
/// cells can overflow 16 bits.
std::pair<std::uint64_t, std::uint64_t> slicesOfRanks(
    const double* p, std::size_t n, std::uint64_t lo, int shift,
    std::size_t rLo, std::size_t rHi) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kSlices = 256;
  std::uint32_t hist[kLanes][kSlices] = {};
  const auto sliceOf = [&](std::size_t i) {
    return (std::bit_cast<std::uint64_t>(p[i]) - lo) >> shift;
  };
  const std::size_t body = n - n % kLanes;
  for (std::size_t i = 0; i < body; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) ++hist[l][sliceOf(i + l)];
  }
  for (std::size_t i = body; i < n; ++i) ++hist[0][sliceOf(i)];
  const auto count = [&](std::uint64_t slice) {
    return std::size_t{hist[0][slice]} + hist[1][slice] + hist[2][slice] +
           hist[3][slice];
  };
  std::size_t seen = 0;  // cells in the slices below `slice`
  std::uint64_t slice = 0;
  while (seen + count(slice) <= rLo) seen += count(slice++);
  const std::uint64_t first = slice;
  while (seen + count(slice) <= rHi) seen += count(slice++);
  return {first, slice};
}

/// medianByCopy() of the rows x cols cells at \p p without sorting them,
/// by a radix select on their bit patterns; also writes each row's
/// largest pattern to \p rowMax. When every cell lies in [+0.0, +inf],
/// equal cells have equal bits and cells order like their bits, so the
/// rank-n/2 bit pattern is the value medianByCopy() returns.
///
/// Each radix step brackets the rank from a sample of its m cells: 1,024
/// at stride m / 1,024 from stride / 2, or, below 2,048 cells, the cells
/// themselves. A 256-slice histogram of the sample over the step's
/// pattern range (the sample's own on the first step, the previous
/// bracket after that) gives the slices holding the sample ranks
/// kSampleDelta either side of the target's (the target's alone when the
/// sample is every cell), and one scanRows pass counts the cells below
/// that bracket and copies those inside it, in order, to the band buffer,
/// in place after the first step; the first also writes the row maxima.
/// The counts are exact, so a bracket that misses the rank is caught, and
/// the selection then falls back to medianByCopy(): a bad sample costs
/// time, never bits. The steps repeat on the band until at most 64 cells
/// are left, the slices are single patterns, or a step drops no cell,
/// and nth_element selects among the rest. Falls back to medianByCopy()
/// for maps with a NaN cell or a cell whose sign bit is set (negative or
/// -0.0), where bit order and value order part ways, and then sets every
/// row maximum to +inf: no threshold sweep may skip a row of such a map.
double medianCell(const double* p, std::size_t rows, std::size_t cols,
                  const detail::MapScanKernels& kernels,
                  DetectScratch& scratch, std::uint64_t* rowMax) {
  const std::size_t n = rows * cols;
  if (n == 0) return 0.0;
  ++scratch.maps;
  constexpr int kSliceBits = 8;
  constexpr std::size_t kNthElementCells = 64;
  scratch.cells.resize(n);
  scratch.sample.resize(kSampleCells);
  double* band = scratch.cells.data();
  const double* cells = p;  // the step's m cells, rows x cols on the first
  std::size_t m = n;
  std::size_t k = n / 2;
  std::uint64_t lo = 0;  // the step's pattern range [lo, hi]
  std::uint64_t hi = 0;
  for (bool first = true;; first = false) {
    const std::size_t stride = m < 2 * kSampleCells ? 1 : m / kSampleCells;
    const double* sample = cells;
    std::size_t s = m;
    std::size_t t = k;  // the target's rank in the sample
    if (stride > 1) {
      for (std::size_t j = 0, i = stride / 2; j < kSampleCells;
           ++j, i += stride) {
        scratch.sample[j] = cells[i];
      }
      sample = scratch.sample.data();
      s = kSampleCells;
      t = k * kSampleCells / m;
    }
    if (first) {
      std::uint64_t sampleTop = 0;
      const detail::BitRange range =
          kernels.minMaxRows(sample, 1, s, &sampleTop);
      lo = range.lo;
      hi = range.hi;
    }
    const int shift = std::max(
        0, static_cast<int>(std::bit_width(hi - lo)) - kSliceBits);
    const std::size_t delta = stride > 1 ? kSampleDelta : 0;
    const auto [a, b] = slicesOfRanks(sample, s, lo, shift,
                                      t > delta ? t - delta : 0,
                                      std::min(t + delta, s - 1));
    const std::uint64_t bracketLo = lo + (a << shift);
    const std::uint64_t width = (b - a + 1) << shift;
    const detail::RowScan scan =
        kernels.scanRows(cells, first ? rows : 1, first ? cols : m, bracketLo,
                         width, band, first ? rowMax : nullptr);
    if (first && scan.range.hi > kInfBits) {
      std::fill(rowMax, rowMax + rows, kInfBits);
      return medianByCopy(p, n, scratch.cells);
    }
    if (first && scan.range.lo == scan.range.hi) return p[0];
    if (!(scan.below <= k && k < scan.below + scan.inBand)) {
      ++scratch.misses;
      return medianByCopy(p, n, scratch.cells);
    }
    const bool dropped = scan.inBand < m;
    k -= scan.below;
    m = scan.inBand;
    lo = bracketLo;
    hi = bracketLo + (width - 1);
    cells = band;
    if (m <= kNthElementCells || shift == 0 || !dropped) break;
  }
  std::nth_element(band, band + k, band + m);
  return band[k];
}

}  // namespace

PeakDetector::PeakDetector(DetectorOptions options) : options_(options) {}

double PeakDetector::noiseFloor(const radar::RangeAngleMap& map) {
  // The median ignores the map's shape: one row of every cell.
  DetectScratch scratch;
  std::uint64_t rowMax = 0;
  return medianCell(map.power.data(), 1, map.power.size(),
                    detail::mapScanKernelsForLevel(
                        rfp::common::simd::activeKernelLevel()),
                    scratch, &rowMax);
}

void PeakDetector::suppressAndConvert(
    const radar::RangeAngleMap& map, const radar::Processor& processor,
    std::vector<std::pair<std::size_t, std::size_t>>& candidates,
    std::vector<Detection>& out) const {
  // Strongest-first greedy non-maximum suppression.
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& x, const auto& y) {
              return map.at(x.first, x.second) > map.at(y.first, y.second);
            });

  out.clear();
  for (const auto& [r, a] : candidates) {
    const double range = map.rangesM[r];
    const double angle = map.anglesRad[a];
    if (options_.bounds.has_value() &&
        !options_.bounds->contains(processor.toWorld(range, angle))) {
      continue;
    }
    const bool tooClose = std::any_of(
        out.begin(), out.end(), [&](const Detection& d) {
          return std::fabs(d.rangeM - range) < options_.minSeparationM &&
                 rfp::common::angularDistance(d.angleRad, angle) <
                     options_.minSeparationRad;
        });
    if (tooClose) continue;

    Detection det;
    det.rangeM = range;
    det.angleRad = angle;
    det.power = map.at(r, a);
    det.world = processor.toWorld(range, angle);
    det.timestampS = map.timestampS;
    out.push_back(det);
    if (out.size() >= options_.maxDetections) break;
  }

  // Dynamic-range cut relative to the strongest accepted peak.
  if (!out.empty() && options_.dynamicRangeDb > 0.0) {
    const double floor =
        out.front().power * std::pow(10.0, -options_.dynamicRangeDb / 10.0);
    std::erase_if(out,
                  [&](const Detection& d) { return d.power < floor; });
  }
}

void PeakDetector::detectInto(const radar::RangeAngleMap& map,
                              const radar::Processor& processor,
                              DetectScratch& scratch,
                              std::vector<Detection>& out) const {
  const std::size_t nR = map.numRanges();
  const std::size_t nA = map.numAngles();
  if (map.power.size() != nR * nA) {
    throw std::invalid_argument(
        "PeakDetector: map power size does not match its axes");
  }
  const detail::MapScanKernels& kernels =
      detail::mapScanKernelsForLevel(rfp::common::simd::activeKernelLevel());
  // Same statistic as noiseFloor(), on the reused buffers; the first
  // scan also leaves each row's largest cell in rowMax.
  scratch.rowMax.resize(nR);
  const double* p = map.power.data();
  const double threshold =
      medianCell(p, nR, nA, kernels, scratch, scratch.rowMax.data()) *
      options_.thresholdFactor;

  // Row-major sweep of the rows holding a cell above the threshold, in
  // the nested loop's (r, a) order: suppressAndConvert's sort is not
  // stable, so the order decides which of two equal peaks survives.
  // Border cells take isLocalMax's clipped neighbourhood; the interior
  // cells of a row go through the level's row kernel.
  scratch.candidates.clear();
  scratch.columns.resize(nA);
  for (std::size_t r = 0; r < nR; ++r) {
    if (!(std::bit_cast<double>(scratch.rowMax[r]) > threshold)) continue;
    const double* row = p + r * nA;
    const auto testBorder = [&](std::size_t a) {
      if (row[a] > threshold && isLocalMax(map, r, a)) {
        scratch.candidates.emplace_back(r, a);
      }
    };
    if (r == 0 || r + 1 == nR) {
      for (std::size_t a = 0; a < nA; ++a) testBorder(a);
      continue;
    }
    testBorder(0);
    const std::size_t found = kernels.localMaxRow(
        row - nA, row, row + nA, nA, threshold, scratch.columns.data());
    for (std::size_t i = 0; i < found; ++i) {
      scratch.candidates.emplace_back(r, scratch.columns[i]);
    }
    if (nA > 1) testBorder(nA - 1);
  }
  suppressAndConvert(map, processor, scratch.candidates, out);
}

std::vector<Detection> PeakDetector::detect(
    const radar::RangeAngleMap& map,
    const radar::Processor& processor) const {
  DetectScratch scratch;
  std::vector<Detection> out;
  detectInto(map, processor, scratch, out);
  return out;
}

}  // namespace rfp::tracking
