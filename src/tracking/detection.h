#pragma once

/// \file detection.h
/// Peak extraction from range-angle power profiles. The paper (Sec. 9.1)
/// notes peaks "can be sporadic with intermittent noise", so the detector
/// combines a noise-floor threshold, local-maximum tests, and non-maximum
/// suppression.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <optional>

#include "common/vec2.h"
#include "radar/processor.h"

namespace rfp::tracking {

/// Axis-aligned world-coordinate acceptance region. Sensing systems reject
/// reflections that resolve outside the monitored space (first-order wall
/// multipath always mirrors *outside* the room, so this also serves as the
/// standard multipath gate).
struct WorldBounds {
  rfp::common::Vec2 lo{};
  rfp::common::Vec2 hi{};

  bool contains(rfp::common::Vec2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
};

/// One detected reflection in a frame.
struct Detection {
  double rangeM = 0.0;
  double angleRad = 0.0;
  double power = 0.0;
  rfp::common::Vec2 world{};  ///< cartesian location (radar frame -> world)
  double timestampS = 0.0;
};

/// Detector configuration.
struct DetectorOptions {
  double thresholdFactor = 8.0;   ///< peak must exceed floor * factor
  std::size_t maxDetections = 8;  ///< strongest peaks kept per frame
  double minSeparationM = 0.6;    ///< NMS radius in range
  double minSeparationRad = 0.35; ///< NMS radius in angle
  /// When set, detections resolving outside this region are discarded.
  std::optional<WorldBounds> bounds;
  /// Keep only peaks within this many dB of the frame's strongest detection
  /// (suppresses beamformer sidelobes and weak switching harmonics).
  double dynamicRangeDb = 10.0;
};

/// Reusable workspace for PeakDetector::detectInto(): the noise floor's
/// band buffer (the map cells inside its radix bracket, or a full copy of
/// the map on the fallback path) and strided sample, each row's largest
/// cell as a bit pattern (+inf on a map with a NaN or sign-bit cell), one
/// row's interior candidate columns, and the candidate list. It also
/// counts the noise-floor selections made through it and the sampled
/// brackets among them that missed the median, which sends a selection
/// down the fallback path (a miss costs time, never bits). One instance
/// per pipeline.
struct DetectScratch {
  std::vector<double> cells;
  std::vector<double> sample;
  std::vector<std::uint64_t> rowMax;
  std::vector<std::size_t> columns;
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  std::uint64_t maps = 0;
  std::uint64_t misses = 0;
};

/// Extracts peaks from range-angle maps.
class PeakDetector {
 public:
  explicit PeakDetector(DetectorOptions options = {});

  const DetectorOptions& options() const { return options_; }

  /// Noise floor estimate: the median cell power of the map, the value
  /// std::nth_element puts at index size()/2 of a copy, bit for bit.
  static double noiseFloor(const radar::RangeAngleMap& map);

  /// Local maxima above noiseFloor * thresholdFactor, non-max suppressed,
  /// strongest-first, at most maxDetections. \p processor supplies the
  /// radar geometry for world-coordinate conversion. Throws
  /// std::invalid_argument when the map's power grid does not hold
  /// numRanges() x numAngles() cells.
  std::vector<Detection> detect(const radar::RangeAngleMap& map,
                                const radar::Processor& processor) const;

  /// detect() onto caller-owned storage (\p out is cleared and refilled):
  /// identical results with no steady-state allocation.
  void detectInto(const radar::RangeAngleMap& map,
                  const radar::Processor& processor, DetectScratch& scratch,
                  std::vector<Detection>& out) const;

 private:
  /// Sorts \p candidates strongest-first in place and fills \p out.
  void suppressAndConvert(
      const radar::RangeAngleMap& map, const radar::Processor& processor,
      std::vector<std::pair<std::size_t, std::size_t>>& candidates,
      std::vector<Detection>& out) const;

  DetectorOptions options_;
};

}  // namespace rfp::tracking
