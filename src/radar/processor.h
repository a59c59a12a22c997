#pragma once

/// \file processor.h
/// The eavesdropper's processing pipeline (paper Sec. 3 / 9.1):
///   1. window + range FFT per antenna,
///   2. background subtraction of successive frames,
///   3. Eq. 2 beamforming across the array -> range-angle power profile.
/// Peaks in the profile represent human (or phantom) motion.
///
/// A frame runs on the calling thread (DESIGN.md Sec. 8): one range FFT
/// per antenna, then one beamforming kernel call over every range row,
/// each row with a fixed accumulation order. The Eq. 2 steering matrix is
/// resolved once per (numAngles, numAntennas, spacing, wavelength) tuple
/// from a process-wide immutable cache (repeated frames -- and repeated
/// Processor constructions in sweep harnesses -- stop re-deriving it),
/// and the range FFT holds the signal-layer plan for its fftSize
/// (twiddles and the bit-reversal table). Both come from LRU caches under
/// a fixed byte budget (common/cache_budget.h) and are resolved once, in
/// the constructor, so process() takes no cache lock.
///
/// Zero-allocation path. processInto() + ProcessorScratch expose the same
/// pipeline on caller-owned storage; a steady-state frame allocates
/// nothing.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/vec2.h"
#include "radar/config.h"
#include "radar/frame.h"
#include "signal/fft.h"
#include "signal/window.h"

namespace rfp::radar {

/// Range-angle power profile for one frame (Fig. 10a/b of the paper).
struct RangeAngleMap {
  std::vector<double> rangesM;     ///< range of each row [m]
  std::vector<double> anglesRad;   ///< angle of each column [rad], from the
                                   ///< array axis
  std::vector<double> power;       ///< row-major power, rangesM.size() rows
  double timestampS = 0.0;

  std::size_t numRanges() const { return rangesM.size(); }
  std::size_t numAngles() const { return anglesRad.size(); }

  double at(std::size_t rangeIdx, std::size_t angleIdx) const {
    return power[rangeIdx * anglesRad.size() + angleIdx];
  }
  double& at(std::size_t rangeIdx, std::size_t angleIdx) {
    return power[rangeIdx * anglesRad.size() + angleIdx];
  }

  /// Location (range/angle indices) of the global power maximum.
  std::pair<std::size_t, std::size_t> argmax() const;

  /// Peak power value.
  double maxPower() const;

  /// Total power (sum over all cells).
  double totalPower() const;
};

/// The Eq. 2 steering matrix of one (numAngles, numAntennas, spacing,
/// wavelength) tuple, a shared immutable entry of the process-wide cache:
/// the row-major matrix of every angle, which the sse2 beamforming kernel
/// sweeps, and deinterleaved [antenna][angle] planes of its first h =
/// ceil(numAngles / 2) angles, which the FMA levels' pair kernels stream
/// -- contiguous loads across angle lanes. Those kernels take angle
/// numAngles - 1 - a as the conjugate of angle a, which the grid
/// theta_a = pi (a + 1) / (numAngles + 1) gives up to the rounding of the
/// computed entries (DESIGN.md Sec. 13).
struct SteeringMatrix {
  std::vector<Complex> w;   ///< [angle][antenna], every angle
  std::vector<double> reT;  ///< [antenna][angle < h], real parts, stride h
  std::vector<double> imT;  ///< [antenna][angle < h], imaginary parts
};

/// Processor options.
struct ProcessorOptions {
  rfp::signal::WindowType window = rfp::signal::WindowType::kHann;
  std::size_t fftSize = 0;        ///< 0 -> next pow2 of 2*samples (zero-pad)
  std::size_t numAngleBins = 181; ///< beamforming grid over (0, pi)
  double maxRangeM = 18.0;        ///< rows beyond this are dropped
  double minRangeM = 0.3;         ///< rows below this are dropped
};

/// Reusable workspace for processInto(): one fftSize FFT slot, reused
/// for each antenna, and the [range][antenna] transposed spectra. Pass
/// the same instance across frames to run the pipeline allocation-free
/// after the first call. One scratch per concurrent caller.
struct ProcessorScratch {
  std::vector<Complex> fft;       ///< [fftSize], one antenna at a time
  std::vector<Complex> spectraT;  ///< [range][antenna], row-major
};

/// Converts frames into range-angle maps and manages background subtraction.
///
/// Thread-safety: process()/processInto() and the coordinate transforms
/// are const and safe to call concurrently (with distinct scratches);
/// backgroundDiff() mutates the stored previous frame and must be
/// externally serialized per instance (one eavesdropper pipeline = one
/// frame sequence).
class Processor {
 public:
  Processor(RadarConfig config, ProcessorOptions options = {});

  const RadarConfig& config() const { return config_; }
  const ProcessorOptions& options() const { return options_; }

  /// Range-angle map of a frame without background subtraction.
  RangeAngleMap process(const Frame& frame) const;

  /// process() onto caller-owned storage: \p out's vectors and \p scratch
  /// reuse their capacity, so steady-state calls allocate nothing.
  /// Bit-identical to process().
  void processInto(const Frame& frame, RangeAngleMap& out,
                   ProcessorScratch& scratch) const;

  /// Background subtraction (the paper subtracts successive frames), on
  /// reused storage: returns nullptr on the priming call, afterwards a pointer to the internally
  /// stored (frame - previous) difference, valid until the next call.
  /// Throws std::invalid_argument on shape mismatch with the primed frame
  /// and on a ragged frame (antennas with different sample counts), the
  /// priming one included.
  const Frame* backgroundDiff(const Frame& frame);

  /// Forgets the stored previous frame.
  void resetBackground();

  /// Range [m] corresponding to FFT row \p rangeIdx of a produced map.
  double rangeOfBin(std::size_t rangeIdx) const;

  /// World location of a (range, angle) cell, using the radar's position
  /// and array orientation. Angles rotate counter-clockwise from the array
  /// axis; the scene is assumed to lie on that side (Sec. 5.2's geometry).
  rfp::common::Vec2 toWorld(double rangeM, double angleRad) const;

  /// Inverse of toWorld: (range, angle-from-array-axis) of a world point.
  rfp::common::Polar toRadarPolar(rfp::common::Vec2 world) const;

  /// The beamforming angle grid, theta_a = pi (a + 1) / (numAngleBins +
  /// 1), and the steering matrix process() beamforms with.
  const std::vector<double>& anglesRad() const { return anglesRad_; }
  const SteeringMatrix& steering() const { return *steering_; }

 private:
  void checkShape(const Frame& frame) const;

  /// Fills \p out's axes/timestamp and sizes its power grid without
  /// clearing it, for the beamforming rows to write every cell (vectors
  /// reuse capacity); shape-checks \p frame against the config.
  void prepareMap(const Frame& frame, RangeAngleMap& out) const;

  /// Window + range FFT of antenna \p k into the fftSize_-long slot
  /// \p fftSlot (signal::fftWindowedInto rewrites all of it), copying the
  /// kept rows into column \p k of the [range][antenna] buffer
  /// \p spectraT.
  void fftAntennaInto(const Frame& frame, std::size_t k, Complex* fftSlot,
                      Complex* spectraT) const;

  RadarConfig config_;
  ProcessorOptions options_;
  std::size_t fftSize_;
  std::size_t firstBin_;
  std::size_t lastBin_;  // exclusive
  std::vector<double> windowCoeffs_;
  std::vector<double> rangesM_;    ///< rangeOfBin of every map row
  std::vector<double> anglesRad_;  ///< beamforming angle grid, (0, pi)
  /// Eq. 2 steering matrix (+ transposed planes); shared immutable entry
  /// of the process-wide steering cache.
  std::shared_ptr<const SteeringMatrix> steering_;
  /// Range-FFT plan for fftSize_, shared with the signal-layer cache.
  std::shared_ptr<const rfp::signal::FftPlan> fftPlan_;
  bool hasPrevious_ = false;
  Frame previous_;   ///< last frame seen by backgroundDiff
  Frame diff_;       ///< reused (frame - previous) buffer
};

/// Number of distinct steering matrices currently cached process-wide
/// (test/introspection hook for the cache keyed on numAngles, numAntennas,
/// spacing, and wavelength; LRU-bounded to half of kCacheBudgetBytes).
std::size_t steeringCacheEntries();

}  // namespace rfp::radar
