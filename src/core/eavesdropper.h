#pragma once

/// \file eavesdropper.h
/// The adversary's sensing stack (paper Sec. 2) as one object: FMCW front
/// end + processing pipeline + peak detector. The legitimate sensor reuses
/// the same stack (Sec. 11.3). A caller that extracts trajectories owns a
/// tracking::MultiTargetTracker (built from SensingConfig::tracker) and
/// feeds it each observation's detections; the spoofing-accuracy runs
/// compare detections with the ghost's intended position and track
/// nothing.
///
/// The stack owns its synthesis, processing and detection scratch, so a
/// frame loop on reused buffers allocates nothing in steady state.
/// observe() and the spoofing runner share one frame step, processFrame().

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "env/scatterer.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "tracking/detection.h"
#include "tracking/tracker.h"

namespace rfp::core {

/// Bundled configuration for a sensing stack and the tracker its readers
/// run on its detections.
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

  /// Senses one frame of the world. Returns std::nullopt for the very first
  /// frame (background subtraction needs a predecessor).
  std::optional<Observation> observe(
      std::span<const env::PointScatterer> scatterers, double timestampS,
      rfp::common::Rng& rng);

  /// One synthesized frame through background subtraction, the
  /// range-angle map (into \p map) and peak detection (into
  /// \p detections, cleared first), on the stack's scratches. Returns the
  /// difference frame, valid until the next call, or nullptr while
  /// priming, when \p map and \p detections are left untouched.
  const radar::Frame* processFrame(const radar::Frame& frame,
                                   radar::RangeAngleMap& map,
                                   std::vector<tracking::Detection>& detections);

  /// Raw frame synthesis without processing (for phase-level analyses such
  /// as breathing extraction, Fig. 14). Non-const: uses the stack's
  /// synthesis scratch.
  radar::Frame senseRaw(std::span<const env::PointScatterer> scatterers,
                        double timestampS, rfp::common::Rng& rng);

  /// senseRaw() into a caller-owned reused frame buffer (no steady-state
  /// allocation). Draws the same single per-chirp noise seed from \p rng
  /// as senseRaw when config().radar.noisePower > 0.
  void senseRawInto(radar::Frame& frame,
                    std::span<const env::PointScatterer> scatterers,
                    double timestampS, rfp::common::Rng& rng);

  /// processFrame()'s background-subtraction phase alone: nullptr primes
  /// (first frame), otherwise the internally stored difference frame,
  /// valid until the next call.
  const radar::Frame* backgroundDiff(const radar::Frame& frame) {
    return processor_.backgroundDiff(frame);
  }

  /// Forgets the background frame, so the next frame primes again.
  void reset();

 private:
  SensingConfig config_;
  radar::Frontend frontend_;
  radar::Processor processor_;
  tracking::PeakDetector detector_;
  radar::SynthScratch synthScratch_;
  radar::ProcessorScratch processorScratch_;
  tracking::DetectScratch detectScratch_;
};

}  // namespace rfp::core
