#include "core/multiradar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "env/environment.h"
#include "tracking/tracker.h"

namespace rfp::core {

using rfp::common::Vec2;

namespace {

/// Time-aligned mean distance between two tracks over their overlapping
/// timestamps (linear interpolation on the second track); infinity when
/// the overlap is under a second.
double trackDistance(const tracking::Track& a, const tracking::Track& b) {
  const double t0 = std::max(a.timestamps.front(), b.timestamps.front());
  const double t1 = std::min(a.timestamps.back(), b.timestamps.back());
  if (t1 - t0 < 1.0) return std::numeric_limits<double>::infinity();

  const env::TimedPath bPath(
      b.history, b.timestamps.size() > 1
                     ? (b.timestamps.back() - b.timestamps.front()) /
                           static_cast<double>(b.timestamps.size() - 1)
                     : 1.0);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const double t = a.timestamps[i];
    if (t < t0 || t > t1) continue;
    sum += distance(a.history[i], bPath.at(t - b.timestamps.front()));
    ++count;
  }
  if (count == 0) return std::numeric_limits<double>::infinity();
  return sum / static_cast<double>(count);
}

std::vector<const tracking::Track*> confirmedTracksOf(
    const tracking::MultiTargetTracker& tracker, std::size_t minLength) {
  std::vector<const tracking::Track*> out;
  for (const auto& t : tracker.finishedTracks()) {
    if (t.confirmed && t.history.size() >= minLength) out.push_back(&t);
  }
  for (const auto& t : tracker.tracks()) {
    if (t.confirmed && t.history.size() >= minLength) out.push_back(&t);
  }
  return out;
}

}  // namespace

RadarPose defaultSecondaryPose(const Scenario& scenario) {
  // Same hardware on the left wall, outside, array along that wall. Axis
  // chosen so the (0, pi) beamforming wedge opens into the room.
  return RadarPose{{-0.8, scenario.plan.height() * 0.45}, {0.0, -1.0}};
}

MultiRadarResult runMultiRadarConsistencyAttack(
    const Scenario& scenario, const std::vector<Vec2>& humanPath,
    double pathDt, const DefenseInjector& injector, rfp::common::Rng& rng,
    const MultiRadarAttackConfig& config) {
  config.validate();
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath(humanPath, pathDt));

  // Radar 0 is the scenario's primary; the rest are the configured
  // secondaries (or the legacy left-wall mount when none are given).
  std::vector<RadarPose> poses;
  poses.push_back(RadarPose{scenario.sensing.radar.position,
                            scenario.sensing.radar.arrayAxis});
  if (config.secondaries.empty()) {
    poses.push_back(defaultSecondaryPose(scenario));
  } else {
    poses.insert(poses.end(), config.secondaries.begin(),
                 config.secondaries.end());
  }

  std::vector<std::unique_ptr<EavesdropperRadar>> radars;
  std::vector<tracking::MultiTargetTracker> trackers;
  for (const RadarPose& pose : poses) {
    SensingConfig cfg = scenario.sensing;
    cfg.radar.position = pose.position;
    cfg.radar.arrayAxis = pose.arrayAxis.normalized();
    radars.push_back(std::make_unique<EavesdropperRadar>(cfg));
    trackers.emplace_back(cfg.tracker);
  }

  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  const double duration =
      std::max(pathDt * static_cast<double>(humanPath.size() - 1),
               2.0 * dt + rfp::common::kTraceDurationS);

  for (double t = 0.0; t <= duration; t += dt) {
    const auto injected = injector ? injector(t)
                                   : std::vector<std::vector<
                                         env::PointScatterer>>{{}};
    // Each radar sees the same physical world; multipath validity is
    // radar-specific, so snapshots are drawn per radar. Directional
    // defenses additionally radiate per-observer amplitudes, in which case
    // the injector returns one list per radar.
    for (std::size_t r = 0; r < radars.size(); ++r) {
      env::SnapshotOptions opts = scenario.snapshot;
      opts.multipathObserver = poses[r].position;
      static const std::vector<env::PointScatterer> kNone;
      const auto& inj = injected.empty()
                            ? kNone
                            : injected[std::min(r, injected.size() - 1)];
      const auto scatterers =
          combineScatterers(environment, t, rng, opts, inj);
      if (const auto obs = radars[r]->observe(scatterers, t, rng)) {
        trackers[r].update(obs->detections, t);
      }
    }
  }

  constexpr std::size_t kMinTrack = 25;
  const auto primaryTracks = confirmedTracksOf(trackers.front(), kMinTrack);
  std::vector<std::vector<const tracking::Track*>> secondaryTracks;
  for (std::size_t r = 1; r < trackers.size(); ++r) {
    secondaryTracks.push_back(confirmedTracksOf(trackers[r], kMinTrack));
  }

  MultiRadarResult result;
  for (const tracking::Track* a : primaryTracks) {
    // An attacker knows the building footprint: a track localized outside
    // the walls cannot be an occupant and is discarded up front (this is
    // where the reflector's switching harmonics land -- n >= 2 images sit
    // several meters beyond the far wall).
    Vec2 mean{};
    for (const Vec2& p : a->history) mean = mean + p;
    mean = mean * (1.0 / static_cast<double>(a->history.size()));
    constexpr double kWallMarginM = 0.25;
    if (mean.x < -kWallMarginM ||
        mean.x > scenario.plan.width() + kWallMarginM ||
        mean.y < -kWallMarginM ||
        mean.y > scenario.plan.height() + kWallMarginM) {
      continue;
    }
    CrossCheckedTrack checked;
    checked.history = a->history;
    double worst = 0.0;
    for (const auto& tracks : secondaryTracks) {
      double best = std::numeric_limits<double>::infinity();
      for (const tracking::Track* b : tracks) {
        best = std::min(best, trackDistance(*a, *b));
      }
      checked.perRadarErrorM.push_back(best);
      worst = std::max(worst, best);
    }
    checked.bestMatchErrorM = worst;
    checked.confirmedBySecondRadar = worst <= config.matchRadiusM;
    if (checked.confirmedBySecondRadar) {
      ++result.confirmedCount;
    } else {
      ++result.flaggedCount;
    }
    result.tracks.push_back(std::move(checked));
  }
  return result;
}

MultiRadarResult runMultiRadarConsistencyAttack(
    const Scenario& scenario, const std::vector<Vec2>& humanPath,
    double pathDt, const trajectory::Trace& ghostTrace,
    rfp::common::Rng& rng, const MultiRadarAttackConfig& config) {
  // Single-reflector legacy defense: one panel placed for the primary
  // radar, its emission shared by every observer (the panel's wide wedge
  // is what the consistency attack exploits).
  RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  system.addGhostAuto(ghostTrace, 2.0 * dt, scenario.plan, rng);
  return runMultiRadarConsistencyAttack(
      scenario, humanPath, pathDt,
      [&system](double t) {
        return std::vector<std::vector<env::PointScatterer>>{
            system.injectAt(t)};
      },
      rng, config);
}

MultiRadarResult runMultiRadarConsistencyAttack(
    const Scenario& scenario, const std::vector<Vec2>& humanPath,
    double pathDt, const trajectory::Trace& ghostTrace,
    rfp::common::Rng& rng, double matchRadiusM) {
  MultiRadarAttackConfig config;
  config.matchRadiusM = matchRadiusM;
  return runMultiRadarConsistencyAttack(scenario, humanPath, pathDt,
                                        ghostTrace, rng, config);
}

}  // namespace rfp::core
