#pragma once

/// \file harness.h
/// End-to-end experiment runners behind the paper's evaluation figures:
/// spoofing-accuracy runs (Fig. 10c / 11), radar localization of real
/// humans (Fig. 9), and combined human+ghost legitimate-sensing runs
/// (Fig. 13).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/vec2.h"
#include "core/eavesdropper.h"
#include "core/legit_sensor.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "fault/fault_schedule.h"
#include "fault/self_healing.h"
#include "trajectory/trace.h"
#include "transport/control_link.h"

namespace rfp::core {

/// Per-frame paired samples plus the paper's three error metrics.
struct SpoofRunResult {
  std::vector<rfp::common::Vec2> intended;   ///< ghost positions (world)
  std::vector<rfp::common::Vec2> measured;   ///< radar detections (world)
  std::vector<double> distanceErrorsM;       ///< |polar radius| deviation
  std::vector<double> angleErrorsDeg;        ///< bearing deviation
  std::vector<double> locationErrorsM;       ///< rigid-aligned 2-D errors
  std::size_t framesTotal = 0;
  std::size_t framesDetected = 0;

  // Fault-injection accounting (all zero on fault-free runs).
  std::size_t framesDroppedRadar = 0;  ///< radar frames lost while ghost on
  std::size_t framesFaulted = 0;  ///< ghost frames with a discrete fault
                                  ///< (drop, stuck/dead element, episode)
  std::size_t decisionsRerouted = 0;   ///< recovery antenna re-selections
  std::size_t decisionsGainClamped = 0;
  std::size_t decisionsStaleReplay = 0;
  std::size_t decisionsPaused = 0;
  std::size_t decisionsCoasted = 0;  ///< schedule entries executed on misses
  std::size_t decisionsParked = 0;   ///< frames parked (fading or dark)

  /// Control-link transport counters (all zero without an enabled
  /// transport).
  transport::LinkStats linkStats;

  /// Per-ledger-frame actuation track for detectability fingerprinting:
  /// where the ghost was meant to be, where the actuation actually put it
  /// (noise-free apparent position), and whether anything radiated.
  std::vector<rfp::common::Vec2> ledgerIntended;
  std::vector<rfp::common::Vec2> ledgerApparent;
  std::vector<std::uint8_t> ledgerEmitted;
};

/// Incremental metrics of one epoch (a block of frames) from a
/// SpoofEpochRunner: the per-epoch privacy sample the fleet scenario
/// service streams to its clients.
struct SpoofEpochSample {
  std::size_t framesSimulated = 0;  ///< loop iterations consumed
  std::size_t framesTotal = 0;      ///< ghost-active observed frames
  std::size_t framesDetected = 0;   ///< frames with a followed detection
  double sumDistanceErrorM = 0.0;   ///< summed |range| deviation
  double sumAngleErrorDeg = 0.0;    ///< summed bearing deviation
};

/// The spoofing-experiment frame loop as a resumable object: construct
/// once, then consume the run in epoch-sized slices with runFrames(). The
/// frame sequence (and every RNG draw) is identical to
/// runSpoofingExperiment's internal loop, so slicing the run into epochs
/// of any size produces bit-identical results -- the property that lets
/// the fleet service interleave thousands of scenario instances without
/// changing any of their numbers. The referenced scenario, system, rng
/// (and schedule, if given) must outlive the runner.
class SpoofEpochRunner {
 public:
  SpoofEpochRunner(const Scenario& scenario, RfProtectSystem& system,
                   int ghostId, double startTimeS, rfp::common::Rng& rng,
                   const fault::FaultSchedule* schedule = nullptr);
  ~SpoofEpochRunner();
  SpoofEpochRunner(const SpoofEpochRunner&) = delete;
  SpoofEpochRunner& operator=(const SpoofEpochRunner&) = delete;

  /// True once the trace duration is exhausted.
  bool done() const;

  /// Runs up to \p maxFrames frames (fewer at the end of the run) and
  /// returns the metrics accumulated over exactly those frames.
  SpoofEpochSample runFrames(std::size_t maxFrames);

  /// Read-only view of the last frame runFrames() ran: the background
  /// difference frame it processed, or nullptr when that frame produced
  /// no map (fault-dropped or priming background subtraction). Valid
  /// until the next runFrames() call.
  const radar::Frame* lastDiff() const;
  /// The range-angle map of the last frame whose lastDiff() was non-null
  /// (reused storage, overwritten by the next processed frame).
  const radar::RangeAngleMap& lastMap() const;

  /// The tone memo of the underlying eavesdropper stack.
  const radar::ToneMemo& toneMemo() const;

  /// Rigid-aligned location errors, ledger decision counters, and link
  /// stats over the whole run; call once, after done().
  SpoofRunResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Spoofs one (centered) ghost trajectory in the scenario and measures it
/// with the eavesdropper stack. This is one of the 45-per-environment runs
/// behind Fig. 11; Fig. 10c plots one run's intended vs measured paths.
SpoofRunResult runSpoofingExperiment(const Scenario& scenario,
                                     const trajectory::Trace& centeredTrace,
                                     rfp::common::Rng& rng);

/// Variant with an explicitly placed trace (anchor + centered trace points,
/// no automatic radial alignment); used by ablations that need to pin the
/// exact geometry, e.g. a tangential bearing sweep.
SpoofRunResult runSpoofingArc(const Scenario& scenario,
                              const trajectory::Trace& centeredTrace,
                              rfp::common::Vec2 anchor,
                              rfp::common::Rng& rng);

/// Fault model + recovery policy for a robustness run.
struct FaultRunOptions {
  fault::FaultConfig faults;      ///< hardware fault model
  fault::RecoveryConfig recovery; ///< self-healing supervisor policy
  /// Control-link transport; disabled = PR 1's naive single-attempt link
  /// (stale replay on drops).
  transport::TransportConfig transport;
};

/// runSpoofingExperiment under injected hardware faults: actuation goes
/// through the self-healing supervisor (src/fault) and radar-side faults
/// (dropped chirp frames, ADC saturation) corrupt the sensing path. With
/// options.faults.intensity == 0 this is bit-identical to
/// runSpoofingExperiment on the same rng seed.
SpoofRunResult runFaultedSpoofingExperiment(
    const Scenario& scenario, const trajectory::Trace& centeredTrace,
    const FaultRunOptions& options, rfp::common::Rng& rng);

/// Radar-only localization of one real human following \p path (room
/// coordinates, sampled at \p pathDt). Reproduces Fig. 9. Returns per-frame
/// localization errors of the strongest detection against ground truth.
struct LocalizationRunResult {
  std::vector<rfp::common::Vec2> truth;
  std::vector<rfp::common::Vec2> measured;
  std::vector<double> errorsM;
};

LocalizationRunResult runLocalizationExperiment(
    const Scenario& scenario, const std::vector<rfp::common::Vec2>& path,
    double pathDt, rfp::common::Rng& rng);

/// One human + one ghost observed by an eavesdropper and by a
/// ledger-carrying legitimate sensor (Fig. 13).
struct LegitSensingRunResult {
  std::vector<std::vector<rfp::common::Vec2>> eavesdropperTrajectories;
  std::vector<std::vector<rfp::common::Vec2>> legitimateTrajectories;
  std::vector<rfp::common::Vec2> humanTruth;
  std::vector<rfp::common::Vec2> ghostIntended;
  double legitRecoveryErrorM = 0.0;  ///< RMS error of the best legit track
                                     ///< against the human truth
};

LegitSensingRunResult runLegitimateSensingExperiment(
    const Scenario& scenario, const std::vector<rfp::common::Vec2>& humanPath,
    double pathDt, const trajectory::Trace& ghostTrace,
    rfp::common::Rng& rng);

/// Combines environment and injected scatterers, adding first-order wall
/// multipath for the injected (dynamic) reflections as well.
std::vector<env::PointScatterer> combineScatterers(
    const env::Environment& environment, double t, rfp::common::Rng& rng,
    const env::SnapshotOptions& opts,
    const std::vector<env::PointScatterer>& injected);

/// combineScatterers into a reused buffer (\p out is cleared first):
/// identical contents and RNG consumption.
void combineScatterersInto(std::vector<env::PointScatterer>& out,
                           const env::Environment& environment, double t,
                           rfp::common::Rng& rng,
                           const env::SnapshotOptions& opts,
                           const std::vector<env::PointScatterer>& injected);

}  // namespace rfp::core
