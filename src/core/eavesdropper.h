#pragma once

/// \file eavesdropper.h
/// The adversary of the threat model (paper Sec. 2) as one object: FMCW
/// front end + processing pipeline + peak detector + multi-target tracker.
/// The legitimate sensor reuses the same sensing stack (Sec. 11.3) -- the
/// only difference is what it does with the ledger.
///
/// The stack owns a radar::ToneMemo, so repeated synthesis of a
/// mostly-static scene reuses each scatterer's memoized tone-chain
/// starts instead of re-deriving them -- bit-identical either way
/// (tone_memo.h). The observeFrame() pipeline is also exposed as its
/// steps (backgroundDiff / processor().processInto / observeDetections)
/// so a frame loop can run it on reused buffers without a second code
/// path: observe() and observeFrame() are themselves composed from the
/// same pieces.

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "env/scatterer.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "radar/tone_memo.h"
#include "tracking/detection.h"
#include "tracking/tracker.h"

namespace rfp::core {

/// Bundled configuration for a sensing stack.
struct SensingConfig {
  radar::RadarConfig radar{};
  radar::ProcessorOptions processor{};
  tracking::DetectorOptions detector{};
  tracking::TrackerOptions tracker{};
};

/// One frame's sensing output.
struct Observation {
  std::vector<tracking::Detection> detections;
  radar::RangeAngleMap map;  ///< background-subtracted range-angle profile
  double timestampS = 0.0;
};

/// A complete FMCW sensing stack.
class EavesdropperRadar {
 public:
  explicit EavesdropperRadar(SensingConfig config);

  const SensingConfig& config() const { return config_; }
  const radar::Processor& processor() const { return processor_; }
  const radar::Frontend& frontend() const { return frontend_; }
  const tracking::MultiTargetTracker& tracker() const { return tracker_; }

  /// Senses one frame of the world. Returns std::nullopt for the very first
  /// frame (background subtraction needs a predecessor). Tracker state is
  /// updated with the frame's detections.
  std::optional<Observation> observe(
      std::span<const env::PointScatterer> scatterers, double timestampS,
      rfp::common::Rng& rng);

  /// Processes an externally synthesized (possibly corrupted) frame through
  /// the same pipeline as observe(); the fault-injection harness uses this
  /// to apply ADC saturation between synthesis and processing.
  std::optional<Observation> observeFrame(radar::Frame frame,
                                          double timestampS);

  /// Raw frame synthesis without processing (for phase-level analyses such
  /// as breathing extraction, Fig. 14). Non-const: feeds the tone memo.
  radar::Frame senseRaw(std::span<const env::PointScatterer> scatterers,
                        double timestampS, rfp::common::Rng& rng);

  /// senseRaw() into a caller-owned reused frame buffer (no steady-state
  /// allocation). Draws the same single per-chirp noise seed from \p rng
  /// as senseRaw when config().radar.noisePower > 0.
  void senseRawInto(radar::Frame& frame,
                    std::span<const env::PointScatterer> scatterers,
                    double timestampS, rfp::common::Rng& rng);

  /// Range-angle map without background subtraction (Fig. 10 visuals).
  radar::RangeAngleMap mapOf(const radar::Frame& frame) const {
    return processor_.process(frame);
  }

  // --- Steps of observeFrame() on reused storage ---

  /// Background-subtraction phase: nullptr primes (first frame),
  /// otherwise the internally stored difference frame, valid until the
  /// next call.
  const radar::Frame* backgroundDiff(const radar::Frame& frame) {
    return processor_.backgroundDiff(frame);
  }

  /// Detection + tracking tail of observeFrame() over a processed map:
  /// fills \p detections (cleared first) and advances the tracker.
  void observeDetections(const radar::RangeAngleMap& map, double timestampS,
                         std::vector<tracking::Detection>& detections);

  /// The tone memo, for its hit counts.
  const radar::ToneMemo& toneMemo() const { return toneMemo_; }

  /// Resets tracker and background state.
  void reset();

 private:
  SensingConfig config_;
  radar::Frontend frontend_;
  radar::Processor processor_;
  tracking::PeakDetector detector_;
  tracking::MultiTargetTracker tracker_;
  radar::ToneMemo toneMemo_;
  radar::ProcessorScratch processorScratch_;
  tracking::DetectScratch detectScratch_;
};

}  // namespace rfp::core
