#include "core/harness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/constants.h"
#include "common/procrustes.h"
#include "tracking/stitcher.h"

namespace rfp::core {

using rfp::common::Vec2;

std::vector<env::PointScatterer> combineScatterers(
    const env::Environment& environment, double t, rfp::common::Rng& rng,
    const env::SnapshotOptions& opts,
    const std::vector<env::PointScatterer>& injected) {
  std::vector<env::PointScatterer> all;
  combineScatterersInto(all, environment, t, rng, opts, injected);
  return all;
}

void combineScatterersInto(std::vector<env::PointScatterer>& out,
                           const env::Environment& environment, double t,
                           rfp::common::Rng& rng,
                           const env::SnapshotOptions& opts,
                           const std::vector<env::PointScatterer>& injected) {
  environment.snapshotInto(out, t, rng, opts);
  // Each injected scatterer, then its wall images when it is dynamic.
  for (const env::PointScatterer& s : injected) {
    out.push_back(s);
    if (opts.includeMultipath && s.dynamic) {
      environment.plan().appendMultipathImages(s, opts.multipathLoss,
                                               opts.multipathObserver, out);
    }
  }
}

namespace {

/// Strongest detection of a frame, or nullptr.
const tracking::Detection* strongestDetection(
    const std::vector<tracking::Detection>& detections) {
  const tracking::Detection* best = nullptr;
  for (const tracking::Detection& d : detections) {
    if (best == nullptr || d.power > best->power) best = &d;
  }
  return best;
}

/// Track-continuous detection selection: once a target has been acquired,
/// prefer the detection nearest the previous pick (rejecting jumps beyond
/// \p gateM); before acquisition fall back to the strongest peak. This is
/// the standard single-target follower an eavesdropper would run and keeps
/// sporadic multipath blobs from hijacking the measurement.
class DetectionFollower {
 public:
  explicit DetectionFollower(double gateM) : gateM_(gateM) {}

  const tracking::Detection* select(
      const std::vector<tracking::Detection>& detections) {
    const tracking::Detection* chosen = nullptr;
    if (acquired_) {
      double best = gateM_;
      for (const tracking::Detection& d : detections) {
        const double dist = distance(d.world, last_);
        if (dist < best) {
          best = dist;
          chosen = &d;
        }
      }
    } else {
      chosen = strongestDetection(detections);
    }
    if (chosen == nullptr) {
      // Re-acquire on the strongest peak after a sustained loss (the
      // target may have drifted out of the gate during a pause).
      if (++missStreak_ > 12) {
        chosen = strongestDetection(detections);
        missStreak_ = 0;
      }
    } else {
      missStreak_ = 0;
    }
    if (chosen != nullptr) {
      last_ = chosen->world;
      acquired_ = true;
    }
    return chosen;
  }

 private:
  double gateM_;
  int missStreak_ = 0;
  bool acquired_ = false;
  Vec2 last_{};
};

/// Rigid-aligned point errors with one trimmed refit: fit, drop the worst
/// quartile, refit on the inliers, report errors of all points under the
/// refined transform. Sporadic radar outliers otherwise skew the global
/// alignment (the paper applies standard "peak rejection" smoothing).
std::vector<double> robustAlignedErrors(const std::vector<Vec2>& source,
                                        const std::vector<Vec2>& target) {
  const auto firstPass = rfp::common::alignedPointErrors(source, target);
  std::vector<double> sorted = firstPass;
  std::sort(sorted.begin(), sorted.end());
  const double cutoff = sorted[sorted.size() * 3 / 4];

  std::vector<Vec2> inSrc;
  std::vector<Vec2> inTgt;
  for (std::size_t i = 0; i < firstPass.size(); ++i) {
    if (firstPass[i] <= cutoff) {
      inSrc.push_back(source[i]);
      inTgt.push_back(target[i]);
    }
  }
  if (inSrc.size() < 3) return firstPass;
  const auto transform = rfp::common::fitRigidTransform(inSrc, inTgt);
  std::vector<double> errors;
  errors.reserve(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    errors.push_back(distance(transform.apply(source[i]), target[i]));
  }
  return errors;
}

}  // namespace

/// Frame-loop state of one spoofing experiment (see SpoofEpochRunner in
/// harness.h). The loop body and its RNG draw order are exactly the old
/// monolithic runSpoofLoop's, just sliced at frame boundaries.
struct SpoofEpochRunner::Impl {
  Impl(const Scenario& scenario, RfProtectSystem& system, int ghostId,
       double startTimeS, rfp::common::Rng& rng,
       const fault::FaultSchedule* schedule)
      : scenario(scenario),
        system(system),
        ghostId(ghostId),
        rng(rng),
        schedule(schedule),
        environment(scenario.plan),  // no humans: phantom only
        radar(scenario.sensing),
        dt(1.0 / scenario.sensing.radar.frameRateHz),
        duration(startTimeS + rfp::common::kTraceDurationS + 2.0 * dt),
        follower(/*gateM=*/1.2) {}

  /// One loop iteration at the current time cursor. When a schedule is
  /// attached, radar-side faults apply: dropped chirp frames are skipped
  /// (the actuator still advances via injectAt) and ADC-saturation
  /// episodes clip the frame between synthesis and processing.
  void stepFrame(SpoofEpochSample& epoch) {
    lastDiff = nullptr;
    const double t = tCursor;
    tCursor += dt;
    ++epoch.framesSimulated;

    const auto injected = system.injectAt(t);
    fault::FrameFaults faults;
    if (schedule != nullptr) faults = schedule->at(t);
    const bool ghostActive = system.intendedPosition(ghostId, t).has_value();
    if (ghostActive && faults.discrete()) ++result.framesFaulted;
    if (faults.radarFrameDropped) {
      if (ghostActive) ++result.framesDroppedRadar;
      return;
    }
    combineScatterersInto(scatterers, environment, t, rng,
                          scenario.snapshot, injected);
    radar.senseRawInto(frameBuf, scatterers, t, rng);
    if (std::isfinite(faults.adcClipLevel)) {
      radar::applyAdcSaturation(frameBuf, faults.adcClipLevel);
    }
    const radar::Frame* diff = radar.backgroundDiff(frameBuf);
    if (diff == nullptr) return;
    radar.processor().processInto(*diff, mapBuf, processorScratch);
    lastDiff = diff;

    radar.observeDetections(mapBuf, t, detections);

    const auto intended = system.intendedPosition(ghostId, t);
    if (!intended.has_value()) return;
    ++result.framesTotal;
    ++epoch.framesTotal;

    const tracking::Detection* det = follower.select(detections);
    if (det == nullptr) return;
    ++result.framesDetected;
    ++epoch.framesDetected;

    result.intended.push_back(*intended);
    result.measured.push_back(det->world);

    const auto intendedPolar = radar.processor().toRadarPolar(*intended);
    const double distanceError = std::fabs(det->rangeM - intendedPolar.range);
    const double angleError = rfp::common::rad2deg(
        rfp::common::angularDistance(det->angleRad, intendedPolar.angle));
    result.distanceErrorsM.push_back(distanceError);
    result.angleErrorsDeg.push_back(angleError);
    epoch.sumDistanceErrorM += distanceError;
    epoch.sumAngleErrorDeg += angleError;
  }

  const Scenario& scenario;
  RfProtectSystem& system;
  int ghostId;
  rfp::common::Rng& rng;
  const fault::FaultSchedule* schedule;
  env::Environment environment;
  EavesdropperRadar radar;
  double dt;
  double duration;
  DetectionFollower follower;
  double tCursor = 0.0;
  SpoofRunResult result;

  // Reused per-frame buffers.
  std::vector<env::PointScatterer> scatterers;
  radar::Frame frameBuf;
  radar::RangeAngleMap mapBuf;
  std::vector<tracking::Detection> detections;
  radar::ProcessorScratch processorScratch;
  const radar::Frame* lastDiff = nullptr;
};

SpoofEpochRunner::SpoofEpochRunner(const Scenario& scenario,
                                   RfProtectSystem& system, int ghostId,
                                   double startTimeS, rfp::common::Rng& rng,
                                   const fault::FaultSchedule* schedule)
    : impl_(std::make_unique<Impl>(scenario, system, ghostId, startTimeS, rng,
                                   schedule)) {}

SpoofEpochRunner::~SpoofEpochRunner() = default;

bool SpoofEpochRunner::done() const {
  return impl_->tCursor > impl_->duration;
}

SpoofEpochSample SpoofEpochRunner::runFrames(std::size_t maxFrames) {
  SpoofEpochSample epoch;
  for (std::size_t i = 0; i < maxFrames && !done(); ++i) {
    impl_->stepFrame(epoch);
  }
  return epoch;
}

const radar::Frame* SpoofEpochRunner::lastDiff() const {
  return impl_->lastDiff;
}

const radar::RangeAngleMap& SpoofEpochRunner::lastMap() const {
  return impl_->mapBuf;
}

SpoofRunResult SpoofEpochRunner::finish() {
  SpoofRunResult result = std::move(impl_->result);
  RfProtectSystem& system = impl_->system;
  if (result.measured.size() >= 4) {
    result.locationErrorsM =
        robustAlignedErrors(result.measured, result.intended);
  }
  for (const reflector::GhostRecord& rec : system.ledger().records()) {
    switch (rec.command.decision) {
      case reflector::HealthDecision::kRerouted:
        ++result.decisionsRerouted;
        break;
      case reflector::HealthDecision::kGainClamped:
        ++result.decisionsGainClamped;
        break;
      case reflector::HealthDecision::kStaleReplay:
        ++result.decisionsStaleReplay;
        break;
      case reflector::HealthDecision::kPaused:
        ++result.decisionsPaused;
        break;
      case reflector::HealthDecision::kCoasted:
        ++result.decisionsCoasted;
        break;
      case reflector::HealthDecision::kParked:
        ++result.decisionsParked;
        break;
      case reflector::HealthDecision::kNominal:
        break;
    }
    // Actuation-level track for detectability fingerprinting. A swallowed
    // frame (paused/dark) keeps no apparent position; emitted frames place
    // the phantom at the command's noise-free apparent location. Stale
    // replays keep spoofing the *old* intended point -- exactly the freeze
    // the fingerprint metric looks for.
    result.ledgerIntended.push_back(rec.command.intendedWorld);
    result.ledgerApparent.push_back(
        system.controller().apparentWorld(rec.command));
    result.ledgerEmitted.push_back(rec.emitted ? 1 : 0);
  }
  result.linkStats = system.linkStats();
  return result;
}

namespace {

/// Shared frame loop of the whole-run spoofing experiments, expressed over
/// the resumable runner so the monolithic and epoch-sliced paths cannot
/// drift apart.
SpoofRunResult runSpoofLoop(const Scenario& scenario,
                            RfProtectSystem& system, int ghostId,
                            double start, rfp::common::Rng& rng,
                            const fault::FaultSchedule* schedule = nullptr) {
  SpoofEpochRunner runner(scenario, system, ghostId, start, rng, schedule);
  while (!runner.done()) runner.runFrames(256);
  return runner.finish();
}

}  // namespace

SpoofRunResult runSpoofingExperiment(const Scenario& scenario,
                                     const trajectory::Trace& centeredTrace,
                                     rfp::common::Rng& rng) {
  RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double start = 2.0 * dt;  // let background subtraction settle
  const int ghostId =
      system.addGhostAuto(centeredTrace, start, scenario.plan, rng);
  return runSpoofLoop(scenario, system, ghostId, start, rng);
}

SpoofRunResult runFaultedSpoofingExperiment(
    const Scenario& scenario, const trajectory::Trace& centeredTrace,
    const FaultRunOptions& options, rfp::common::Rng& rng) {
  RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double start = 2.0 * dt;
  const int ghostId =
      system.addGhostAuto(centeredTrace, start, scenario.plan, rng);
  const double duration = start + rfp::common::kTraceDurationS + 2.0 * dt;
  auto schedule = std::make_shared<const fault::FaultSchedule>(
      options.faults, static_cast<int>(scenario.panel.positions().size()),
      dt, duration);
  system.attachFaults(schedule, options.recovery, options.transport);
  return runSpoofLoop(scenario, system, ghostId, start, rng, schedule.get());
}

SpoofRunResult runSpoofingArc(const Scenario& scenario,
                              const trajectory::Trace& centeredTrace,
                              rfp::common::Vec2 anchor,
                              rfp::common::Rng& rng) {
  RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double start = 2.0 * dt;
  const int ghostId = system.addGhost(centeredTrace, anchor, start);
  return runSpoofLoop(scenario, system, ghostId, start, rng);
}

LocalizationRunResult runLocalizationExperiment(
    const Scenario& scenario, const std::vector<Vec2>& path, double pathDt,
    rfp::common::Rng& rng) {
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath(path, pathDt));
  EavesdropperRadar radar(scenario.sensing);

  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double duration = pathDt * static_cast<double>(path.size() - 1);

  LocalizationRunResult result;
  for (double t = 0.0; t <= duration; t += dt) {
    const auto scatterers =
        combineScatterers(environment, t, rng, scenario.snapshot, {});
    const auto obs = radar.observe(scatterers, t, rng);
    if (!obs.has_value()) continue;
    const tracking::Detection* det = strongestDetection(obs->detections);
    if (det == nullptr) continue;
    const Vec2 truth = environment.humans().front().positionAt(t);
    result.truth.push_back(truth);
    result.measured.push_back(det->world);
    result.errorsM.push_back(distance(det->world, truth));
  }
  return result;
}

LegitSensingRunResult runLegitimateSensingExperiment(
    const Scenario& scenario, const std::vector<Vec2>& humanPath,
    double pathDt, const trajectory::Trace& ghostTrace,
    rfp::common::Rng& rng) {
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath(humanPath, pathDt));
  EavesdropperRadar radar(scenario.sensing);
  RfProtectSystem system(scenario.makeController());
  LegitimateSensor legit(scenario.sensing.tracker);

  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double start = 2.0 * dt;
  const int ghostId =
      system.addGhostAuto(ghostTrace, start, scenario.plan, rng);
  const double duration =
      std::max(pathDt * static_cast<double>(humanPath.size() - 1),
               start + rfp::common::kTraceDurationS);

  LegitSensingRunResult result;
  for (double t = 0.0; t <= duration; t += dt) {
    const auto injected = system.injectAt(t);
    const auto scatterers =
        combineScatterers(environment, t, rng, scenario.snapshot, injected);
    const auto obs = radar.observe(scatterers, t, rng);
    if (!obs.has_value()) continue;

    legit.update(obs->detections, t, system.ledger());

    result.humanTruth.push_back(environment.humans().front().positionAt(t));
    if (const auto g = system.intendedPosition(ghostId, t)) {
      result.ghostIntended.push_back(*g);
    }
  }

  // Stitch fragmented segments into per-target trajectories (>= ~1 s)
  // before counting -- the statistic occupancy eavesdroppers care about.
  tracking::StitchOptions stitchOpts;
  stitchOpts.minLength = 25;
  const auto eavesChains =
      tracking::stitchTracker(radar.tracker(), stitchOpts);
  for (const auto& chain : eavesChains) {
    result.eavesdropperTrajectories.push_back(chain.history);
  }
  const auto legitChains =
      tracking::stitchTracker(legit.tracker(), stitchOpts);
  for (const auto& chain : legitChains) {
    result.legitimateTrajectories.push_back(chain.history);
  }

  // Score the legitimate sensor's best recovered trajectory against the
  // truth, comparing time-aligned samples.
  const env::TimedPath truthPath(humanPath, pathDt);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& chain : legitChains) {
    double sum = 0.0;
    for (std::size_t i = 0; i < chain.history.size(); ++i) {
      sum += distance(chain.history[i], truthPath.at(chain.timestamps[i]));
    }
    best = std::min(best, sum / static_cast<double>(chain.history.size()));
  }
  result.legitRecoveryErrorM = std::isfinite(best) ? best : -1.0;
  return result;
}

}  // namespace rfp::core
