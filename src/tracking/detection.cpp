#include "tracking/detection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/vec2.h"

namespace rfp::tracking {

namespace {

bool isLocalMax(const radar::RangeAngleMap& map, std::size_t r,
                std::size_t a) {
  const std::size_t nA = map.numAngles();
  const double* c = map.power.data() + r * nA + a;
  const double v = *c;
  if (r > 0 && r + 1 < map.numRanges() && a > 0 && a + 1 < nA) {
    // Interior cell: all eight neighbours exist.
    const double* up = c - nA;
    const double* down = c + nA;
    return !(up[-1] > v || up[0] > v || up[1] > v || c[-1] > v ||
             c[1] > v || down[-1] > v || down[0] > v || down[1] > v);
  }
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

/// The value std::nth_element puts at index n / 2 of a copy of \p cells
/// (made in \p buf).
double medianByCopy(const std::vector<double>& cells,
                    std::vector<double>& buf) {
  buf.assign(cells.begin(), cells.end());
  const std::size_t mid = buf.size() / 2;
  std::nth_element(buf.begin(), buf.begin() + mid, buf.end());
  return buf[mid];
}

/// medianByCopy() without sorting the whole map, by a radix select on the
/// cells' bit patterns. When every cell lies in [+0.0, +inf], equal cells
/// have equal bits and cells order like their bits, so the rank-n/2 bit
/// pattern is the value medianByCopy() returns. One pass finds the
/// smallest and largest pattern, a second histograms the patterns into
/// 256 equal slices of that range, and a third compacts the one slice
/// holding rank n/2 into \p band, where nth_element finishes. Four
/// accumulators and four sub-histograms keep neighbouring cells, which
/// are correlated, off one dependency chain. Falls back to medianByCopy()
/// for maps with a NaN cell or a cell whose sign bit is set (negative or
/// -0.0), where bit order and value order part ways.
double medianCell(const std::vector<double>& cells,
                  std::vector<double>& band) {
  const std::size_t n = cells.size();
  if (n == 0) return 0.0;
  const double* p = cells.data();
  constexpr std::size_t kLanes = 4;
  std::uint64_t lo[kLanes] = {~0ull, ~0ull, ~0ull, ~0ull};
  std::uint64_t hi[kLanes] = {};
  const std::size_t body = n - n % kLanes;
  for (std::size_t i = 0; i < body; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint64_t b = std::bit_cast<std::uint64_t>(p[i + l]);
      lo[l] = std::min(lo[l], b);
      hi[l] = std::max(hi[l], b);
    }
  }
  for (std::size_t i = body; i < n; ++i) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(p[i]);
    lo[0] = std::min(lo[0], b);
    hi[0] = std::max(hi[0], b);
  }
  const std::uint64_t minBits = std::min({lo[0], lo[1], lo[2], lo[3]});
  const std::uint64_t maxBits = std::max({hi[0], hi[1], hi[2], hi[3]});
  if (maxBits > kInfBits) return medianByCopy(cells, band);
  if (minBits == maxBits) return p[0];

  constexpr int kSliceBits = 8;
  constexpr std::size_t kSlices = std::size_t{1} << kSliceBits;
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(maxBits - minBits)) -
                      kSliceBits);
  const auto sliceOf = [&](std::size_t i) {
    return (std::bit_cast<std::uint64_t>(p[i]) - minBits) >> shift;
  };
  // 32-bit counts: a lane of a map with 2^18 or more cells can overflow
  // 16 bits.
  std::uint32_t hist[kLanes][kSlices] = {};
  for (std::size_t i = 0; i < body; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) ++hist[l][sliceOf(i + l)];
  }
  for (std::size_t i = body; i < n; ++i) ++hist[0][sliceOf(i)];
  const std::size_t k = n / 2;
  std::size_t below = 0;
  std::uint64_t slice = 0;
  for (;; ++slice) {
    const std::size_t count = std::size_t{hist[0][slice]} +
                              hist[1][slice] + hist[2][slice] +
                              hist[3][slice];
    if (below + count > k) break;
    below += count;
  }

  // The slice's pattern range, so the compaction needs no variable shift.
  const std::uint64_t sliceLo = minBits + (slice << shift);
  const std::uint64_t sliceWidth = std::uint64_t{1} << shift;
  band.resize(n);
  double* out = band.data();
  std::size_t inSlice = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[inSlice] = p[i];
    inSlice += std::bit_cast<std::uint64_t>(p[i]) - sliceLo < sliceWidth;
  }
  const auto kth = band.begin() + static_cast<std::ptrdiff_t>(k - below);
  std::nth_element(band.begin(), kth,
                   band.begin() + static_cast<std::ptrdiff_t>(inSlice));
  return *kth;
}

}  // namespace

PeakDetector::PeakDetector(DetectorOptions options) : options_(options) {}

double PeakDetector::noiseFloor(const radar::RangeAngleMap& map) {
  std::vector<double> band;
  return medianCell(map.power, band);
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
  // Same statistic as noiseFloor(), on the reused band buffer.
  const double threshold =
      medianCell(map.power, scratch.cells) * options_.thresholdFactor;
  const std::size_t total = map.power.size();
  scratch.candidates.clear();
  // Flat row-major sweep (same (r, a) visit order as the nested loop).
  // Blocks with no cell above threshold -- the overwhelming majority --
  // are skipped on one vectorizable compare-reduce.
  const double* p = map.power.data();
  const std::size_t nA = map.numAngles();
  constexpr std::size_t kBlock = 16;
  std::size_t idx = 0;
  while (idx < total) {
    const std::size_t end = std::min(idx + kBlock, total);
    bool any = false;
    for (std::size_t i = idx; i < end; ++i) any |= p[i] > threshold;
    if (any) {
      for (std::size_t i = idx; i < end; ++i) {
        if (p[i] > threshold) {
          const std::size_t r = i / nA;
          const std::size_t a = i % nA;
          if (isLocalMax(map, r, a)) scratch.candidates.emplace_back(r, a);
        }
      }
    }
    idx = end;
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

std::vector<Detection> PeakDetector::detectCfar(
    const radar::RangeAngleMap& map,
    const radar::Processor& processor) const {
  const std::size_t numRanges = map.numRanges();
  const std::size_t train = options_.cfarTrainCells;
  const std::size_t guard = options_.cfarGuardCells;

  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t a = 0; a < map.numAngles(); ++a) {
    for (std::size_t r = 0; r < numRanges; ++r) {
      // Average the training cells on both sides of the guard interval.
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t k = guard + 1; k <= guard + train; ++k) {
        if (r >= k) {
          sum += map.at(r - k, a);
          ++count;
        }
        if (r + k < numRanges) {
          sum += map.at(r + k, a);
          ++count;
        }
      }
      if (count == 0) continue;
      const double local = sum / static_cast<double>(count);
      if (map.at(r, a) > options_.cfarScale * local &&
          isLocalMax(map, r, a)) {
        candidates.emplace_back(r, a);
      }
    }
  }
  std::vector<Detection> out;
  suppressAndConvert(map, processor, candidates, out);
  return out;
}

}  // namespace rfp::tracking
