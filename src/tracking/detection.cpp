#include "tracking/detection.h"

#include <algorithm>
#include <array>
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

/// Median bracket: a strided sample of kSampleCells cells whose ranks
/// kSampleCells / 2 -+ kSampleMargin bound the band of cells the exact
/// selection runs on.
constexpr std::size_t kSampleCells = 1024;
constexpr std::size_t kSampleMargin = 40;
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

/// medianByCopy() without sorting the whole map: when every cell lies in
/// [+0.0, +inf], equal cells have equal bits, so the rank-n/2 value is
/// unique and selecting it from the band of cells inside a sampled
/// bracket [lo, hi] returns the same bits. Falls back to medianByCopy()
/// for small maps, for a bracket that misses rank n/2, and for maps with
/// a NaN cell or a cell whose sign bit is set (negative or -0.0), where
/// bit order and value order part ways.
double medianCell(const std::vector<double>& cells,
                  std::vector<double>& band) {
  const std::size_t n = cells.size();
  if (n == 0) return 0.0;
  if (n < PeakDetector::kBracketMinCells) return medianByCopy(cells, band);
  const double* p = cells.data();
  const std::size_t stride = n / kSampleCells;
  std::array<std::uint64_t, kSampleCells> sample{};
  for (std::size_t i = 0; i < kSampleCells; ++i) {
    sample[i] = std::bit_cast<std::uint64_t>(p[i * stride]);
  }
  const auto loIt = sample.begin() + (kSampleCells / 2 - kSampleMargin);
  const auto hiIt = sample.begin() + (kSampleCells / 2 + kSampleMargin);
  std::nth_element(sample.begin(), loIt, sample.end());
  std::nth_element(loIt + 1, hiIt, sample.end());
  const std::uint64_t lo = *loIt;
  const std::uint64_t width = *hiIt - lo;

  // One branch-free pass: count the cells below lo, compact the cells in
  // [lo, hi] to the front of the band, and track the largest bit pattern.
  band.resize(n);
  double* out = band.data();
  std::size_t below = 0;
  std::size_t inBand = 0;
  std::uint64_t maxBits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b = std::bit_cast<std::uint64_t>(p[i]);
    out[inBand] = p[i];
    below += b < lo;
    inBand += b - lo <= width;
    maxBits = std::max(maxBits, b);
  }
  const std::size_t k = n / 2;
  if (maxBits > kInfBits || k < below || k >= below + inBand) {
    return medianByCopy(cells, band);
  }
  const auto kth = band.begin() + static_cast<std::ptrdiff_t>(k - below);
  std::nth_element(band.begin(), kth,
                   band.begin() + static_cast<std::ptrdiff_t>(inBand));
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
