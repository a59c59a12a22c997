#include "core/scenario.h"

#include "common/constants.h"

namespace rfp::core {

using rfp::common::Vec2;

namespace {

/// Shared radar + pipeline settings matching the paper's prototype
/// (Sec. 9.1): 6-7 GHz chirp over 500 us, 7-antenna ULA, half-wavelength
/// spacing, 20 frames per second.
SensingConfig baseSensing(Vec2 radarPosition) {
  SensingConfig s;
  s.radar.position = radarPosition;
  s.radar.arrayAxis = {1.0, 0.0};
  s.radar.frameRateHz = 20.0;
  s.radar.noisePower = 2e-4;
  s.processor.maxRangeM = 17.0;
  s.processor.minRangeM = 0.4;
  s.processor.numAngleBins = 181;
  s.detector.thresholdFactor = 10.0;
  s.detector.maxDetections = 6;
  return s;
}

/// Controller that assumes the radar where it actually is (the paper shows
/// a displaced radar only rotates the trajectory, which the metrics mod
/// out anyway).
reflector::ControllerConfig baseController(Vec2 radarPosition) {
  reflector::ControllerConfig c;
  c.assumedRadarPosition = radarPosition;
  c.chirpSlopeHzPerS = radar::ChirpConfig{}.slope();
  c.humanAmplitude = 1.0;
  return c;
}

}  // namespace

namespace {

/// Reject reflections that resolve outside the monitored room (standard
/// multipath/out-of-home gating). The margin accommodates the panel's
/// angular quantization, which can push a legitimate phantom's *apparent*
/// position slightly across a wall; first-order mirror images land much
/// farther out and are still rejected.
void boundToPlan(SensingConfig& sensing, const env::FloorPlan& plan) {
  constexpr double kMarginM = 0.75;
  sensing.detector.bounds = tracking::WorldBounds{
      {-kMarginM, -kMarginM},
      {plan.width() + kMarginM, plan.height() + kMarginM}};
}

}  // namespace

Scenario makeOfficeScenario() {
  // The eavesdropper sits *outside* the bottom wall (through-wall sensing,
  // paper Fig. 1/8); the panel hangs on the inside of that wall, centered
  // ~1.2 m from the radar (paper Sec. 9.3). Seen from outside, the panel
  // is near-broadside, so its 6 antennas fan a wide angular wedge into
  // the room.
  const Vec2 radarPos{4.0, -0.8};
  const Vec2 panelBase{3.3, 0.35};
  auto plan = env::FloorPlan::office();
  auto sensing = baseSensing(radarPos);
  boundToPlan(sensing, plan);
  return Scenario{
      std::move(plan),
      std::move(sensing),
      reflector::AntennaPanel(panelBase, {1.0, 0.0},
                              rfp::common::kPanelAntennas,
                              rfp::common::kPanelSpacingM),
      baseController(radarPos),
      reflector::ReflectorHardware{},
      env::SnapshotOptions{.includeClutter = true,
                           .includeMultipath = true,
                           .multipathLoss = 0.65,
                           .rcsJitter = 0.12,
                           .multipathObserver = radarPos},
      fault::FaultConfig{},
      MultiRadarAttackConfig{},
  };
}

Scenario makeHomeScenario() {
  const Vec2 radarPos{6.5, -0.8};  // outside the bottom wall
  const Vec2 panelBase{5.9, 0.35};
  auto plan = env::FloorPlan::home();
  auto sensing = baseSensing(radarPos);
  boundToPlan(sensing, plan);
  return Scenario{
      std::move(plan),
      std::move(sensing),
      reflector::AntennaPanel(panelBase, {1.0, 0.0},
                              rfp::common::kPanelAntennas,
                              rfp::common::kPanelSpacingM),
      baseController(radarPos),
      reflector::ReflectorHardware{},
      env::SnapshotOptions{.includeClutter = true,
                           .includeMultipath = true,
                           .multipathLoss = 0.35,
                           .rcsJitter = 0.10,
                           .multipathObserver = radarPos},
      fault::FaultConfig{},
      MultiRadarAttackConfig{},
  };
}

}  // namespace rfp::core
