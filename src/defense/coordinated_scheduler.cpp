#include "defense/coordinated_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "common/constants.h"
#include "common/det_hash.h"
#include "linalg/matrix.h"
#include "tracking/hungarian.h"
#include "transport/framing.h"

namespace rfp::defense {

using rfp::common::Vec2;
using reflector::ControlCommand;
using reflector::HealthDecision;

namespace {

/// Phase-shifter DAC model (same as the self-healing actuator's): quantize
/// to \p bits and OR in stuck-at-1 bits.
double quantizePhase(double phaseRad, int bits, unsigned stuckMask) {
  const double twoPi = 2.0 * rfp::common::pi();
  const double levels = static_cast<double>(1u << static_cast<unsigned>(bits));
  double frac = phaseRad / twoPi;
  frac -= std::floor(frac);
  auto code = static_cast<unsigned>(std::lround(frac * levels)) %
              static_cast<unsigned>(levels);
  code |= stuckMask;
  code %= static_cast<unsigned>(levels);
  return static_cast<double>(code) * twoPi / levels;
}

bool commandFinite(const ControlCommand& cmd) {
  return std::isfinite(cmd.fSwitchHz) && std::isfinite(cmd.gain) &&
         std::isfinite(cmd.phaseOffsetRad) &&
         std::isfinite(cmd.spoofedRangeM) &&
         std::isfinite(cmd.intendedWorld.x) &&
         std::isfinite(cmd.intendedWorld.y);
}

/// Trajectory sample count for the assignment cost (spread evenly over the
/// ghost's points; enough to average out per-antenna quantization).
constexpr std::size_t kCostSamples = 8;
/// Cost charged per infeasible sample (no realizable actuation for that
/// reflector/radar pair at that point) -- dominates any geometric error, so
/// the Hungarian solver avoids infeasible pairings when it has a choice.
constexpr double kInfeasibleCost = 1.0e3;

}  // namespace

CoordinatedGhostScheduler::CoordinatedGhostScheduler(
    FleetConfig config, std::vector<core::RadarPose> radars,
    std::vector<Vec2> ghostPoints, double startTimeS, double pointDtS)
    : config_(std::move(config)),
      radars_(std::move(radars)),
      ghostPoints_(std::move(ghostPoints)),
      startTimeS_(startTimeS),
      pointDtS_(pointDtS),
      fleet_(config_),
      assignment_(fleet_.size(), -1) {
  if (radars_.empty()) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: at least one radar");
  }
  for (const core::RadarPose& pose : radars_) {
    if (!std::isfinite(pose.position.x) || !std::isfinite(pose.position.y)) {
      throw std::invalid_argument(
          "CoordinatedGhostScheduler: radar pose must be finite");
    }
  }
  if (ghostPoints_.size() < 2) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: ghost trajectory too short");
  }
  if (!(pointDtS_ > 0.0) || !std::isfinite(pointDtS_)) {
    throw std::invalid_argument(
        "CoordinatedGhostScheduler: point dt must be positive");
  }
}

bool CoordinatedGhostScheduler::ghostActiveAt(double t) const {
  const double endS =
      startTimeS_ +
      pointDtS_ * static_cast<double>(ghostPoints_.size() - 1);
  return t >= startTimeS_ && t <= endS;
}

Vec2 CoordinatedGhostScheduler::ghostAt(double t) const {
  const double idx = (t - startTimeS_) / pointDtS_;
  if (idx <= 0.0) return ghostPoints_.front();
  if (idx >= static_cast<double>(ghostPoints_.size() - 1)) {
    return ghostPoints_.back();
  }
  const auto lo = static_cast<std::size_t>(idx);
  const double frac = idx - static_cast<double>(lo);
  return ghostPoints_[lo] * (1.0 - frac) + ghostPoints_[lo + 1] * frac;
}

void CoordinatedGhostScheduler::resolveAssignments(double t,
                                                   std::uint64_t frame,
                                                   const std::string& reason) {
  const auto t0 = std::chrono::steady_clock::now();
  ++resolveCount_;
  solvedOnce_ = true;

  // Usable reflectors and the radar subset they can cover. Radar priority
  // is attack-config order (primary first), so under partial coverage the
  // strongest radars stay satisfied.
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    if (fleet_.at(i).health != ReflectorHealth::kLost) usable.push_back(i);
  }
  const std::size_t covered = std::min(usable.size(), radars_.size());

  std::vector<int> next(fleet_.size(), -1);
  if (covered > 0) {
    // Spoof-fidelity cost of reflector p playing radar r: mean apparent-vs-
    // intended error over sampled trajectory points, solved with a
    // controller that assumes radar r. A seeded epsilon keeps ties
    // deterministic.
    linalg::Matrix cost(usable.size(), covered, 0.0);
    for (std::size_t p = 0; p < usable.size(); ++p) {
      const ReflectorFleet::Reflector& rf = fleet_.at(usable[p]);
      reflector::ActuationConstraints constraints;
      constraints.maxSwitchHz = rf.hardware.maxSwitchHz;
      constraints.maxLinearGain = rf.hardware.maxGain;
      for (std::size_t r = 0; r < covered; ++r) {
        reflector::ControllerConfig cc = config_.controller;
        cc.assumedRadarPosition = radars_[r].position;
        const reflector::ReflectorController controller(
            rf.panel, reflector::SwitchedReflector(rf.hardware), cc);
        double sum = 0.0;
        for (std::size_t k = 0; k < kCostSamples; ++k) {
          const std::size_t gi =
              k * (ghostPoints_.size() - 1) / (kCostSamples - 1);
          const Vec2 g = ghostPoints_[gi];
          const double tg = startTimeS_ + pointDtS_ * static_cast<double>(gi);
          const auto cmd =
              controller.commandForConstrained(g, tg, constraints);
          if (cmd.has_value() && commandFinite(*cmd)) {
            sum += distance(controller.apparentWorld(*cmd), g);
          } else {
            sum += kInfeasibleCost;
          }
        }
        cost(p, r) = sum / static_cast<double>(kCostSamples) +
                     1e-9 * rfp::common::hashUniform(
                                config_.seed, usable[p],
                                1000 + static_cast<std::uint64_t>(r));
      }
    }

    const std::vector<int> rows = tracking::solveAssignment(cost);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (rows[p] >= 0) next[usable[p]] = rows[p];
    }
  }

  // Apply: a reflector whose radar changed gets a fresh controller (the
  // assumed radar position is baked into Eq. 3) and drops its coasting
  // schedule and continuity anchor -- both were solved for the old radar's
  // geometry and the apparent position is radar-relative.
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    ReflectorFleet::Reflector& rf = fleet_.at(i);
    const bool changed = next[i] != rf.assignedRadar;
    rf.assignedRadar = next[i];
    if (next[i] < 0) {
      if (changed) rf.controller.reset();
      continue;
    }
    if (changed || !rf.controller.has_value()) {
      reflector::ControllerConfig cc = config_.controller;
      cc.assumedRadarPosition =
          radars_[static_cast<std::size_t>(next[i])].position;
      rf.controller.emplace(rf.panel,
                            reflector::SwitchedReflector(rf.hardware), cc);
      rf.coastSchedule.clear();
      rf.hasLast = false;
    }
  }
  assignment_ = std::move(next);

  tier_ = covered == radars_.size() ? DefenseTier::kFullConsistency
          : covered >= 2            ? DefenseTier::kPartialConsistency
          : covered == 1            ? DefenseTier::kSingleRadarLegacy
                                    : DefenseTier::kPaused;

  FailoverRecord record;
  record.frame = frame;
  record.timestampS = t;
  record.tier = tier_;
  record.assignment = assignment_;
  record.health = fleet_.healths();
  record.reason = reason;
  failoverLedger_.add(std::move(record));

  lastResolveUs_ = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

ControlCommand CoordinatedGhostScheduler::planCommand(
    std::size_t idx, Vec2 ghostWorld, double tCmd, double tBelief,
    bool checkContinuity) const {
  const ReflectorFleet::Reflector& rf = fleet_.at(idx);
  const reflector::ReflectorController& controller = *rf.controller;

  ControlCommand cmd;
  if (!config_.recovery.enabled || rf.schedule->idle()) {
    cmd = controller.commandFor(ghostWorld, tCmd);
  } else {
    // Watchdog belief: ground truth delayed by the readback latency.
    const double lookback =
        static_cast<double>(config_.recovery.watchdogLatencyFrames) *
        config_.frameDtS;
    const fault::FrameFaults believed =
        rf.schedule->at(std::max(0.0, tBelief - lookback));

    reflector::ActuationConstraints constraints;
    const int n = rf.panel.count();
    constraints.healthyAntennas.assign(static_cast<std::size_t>(n), true);
    for (int i = 0; i < n; ++i) {
      if (believed.deadAntenna[static_cast<std::size_t>(i)]) {
        constraints.healthyAntennas[static_cast<std::size_t>(i)] = false;
      }
    }
    if (believed.stuckSwitchElement >= 0 &&
        believed.stuckSwitchElement < n) {
      for (int i = 0; i < n; ++i) {
        constraints.healthyAntennas[static_cast<std::size_t>(i)] =
            i == believed.stuckSwitchElement &&
            !believed.deadAntenna[static_cast<std::size_t>(i)];
      }
    }
    constraints.maxSwitchHz = rf.hardware.maxSwitchHz;
    constraints.maxLinearGain = believed.lnaGainLimit;

    const auto constrained =
        controller.commandForConstrained(ghostWorld, tCmd, constraints);
    if (!constrained.has_value()) {
      ControlCommand paused;
      paused.intendedWorld = ghostWorld;
      paused.decision = HealthDecision::kPaused;
      return paused;
    }
    cmd = *constrained;
    if (checkContinuity && cmd.decision == HealthDecision::kRerouted &&
        rf.hasLast &&
        distance(controller.apparentWorld(cmd), rf.lastApparent) >
            config_.recovery.maxApparentJumpM) {
      cmd.decision = HealthDecision::kPaused;
    }
  }

  // Hard invariant for the fleet: never ship a non-finite schedule entry
  // (acceptance criterion; a NaN f_switch would propagate into the radar
  // front end as a NaN tone).
  if (cmd.decision != HealthDecision::kPaused && !commandFinite(cmd)) {
    ControlCommand paused;
    paused.intendedWorld = ghostWorld;
    paused.decision = HealthDecision::kPaused;
    return paused;
  }
  return cmd;
}

void CoordinatedGhostScheduler::radiate(
    std::size_t idx, const ControlCommand& cmd, const fault::FrameFaults& ff,
    std::vector<env::PointScatterer>& emitted, bool* emittedFlag) {
  ReflectorFleet::Reflector& rf = fleet_.at(idx);
  const reflector::ReflectorController& controller = *rf.controller;
  const int ghostId = kFleetGhostIdBase + static_cast<int>(idx);

  if (!ff.any()) {
    const auto tones = controller.execute(cmd, ghostId);
    emitted.insert(emitted.end(), tones.begin(), tones.end());
    *emittedFlag = true;
    rf.lastElement = cmd.antennaIndex;
    return;
  }

  ControlCommand actual = cmd;
  if (ff.stuckSwitchElement >= 0 &&
      ff.stuckSwitchElement < rf.panel.count()) {
    actual.antennaIndex = ff.stuckSwitchElement;
  }
  const auto element = static_cast<std::size_t>(actual.antennaIndex);
  if (element < ff.deadAntenna.size() && ff.deadAntenna[element]) {
    rf.lastElement = actual.antennaIndex;
    return;  // selected element's feed is dead: nothing radiates
  }

  double jitter = ff.switchJitterRel;
  if (rf.lastElement >= 0 && actual.antennaIndex != rf.lastElement) {
    jitter += ff.settleJitterRel;
  }
  jitter = std::clamp(jitter, -0.9, 0.9);
  actual.fSwitchHz = cmd.fSwitchHz * (1.0 + jitter);
  actual.gain = cmd.gain * std::exp(ff.gainDriftLog);

  bool overdriven = false;
  if (actual.gain > ff.lnaGainLimit) {
    overdriven = true;
    actual.gain = ff.lnaGainLimit;
  }
  if (ff.phaseQuantBits > 0) {
    actual.phaseOffsetRad = quantizePhase(actual.phaseOffsetRad,
                                          ff.phaseQuantBits,
                                          ff.phaseStuckBitMask);
  }

  auto tones = controller.execute(actual, ghostId);
  if (overdriven) {
    // Saturation clipping: compressed fundamental plus an intermodulation
    // image at twice the switching rate (same model as the single-panel
    // self-healing actuator).
    ControlCommand spur = actual;
    spur.fSwitchHz = 2.0 * actual.fSwitchHz;
    spur.gain = 0.6 * ff.lnaGainLimit;
    const auto spurTones = controller.execute(spur, ghostId);
    tones.insert(tones.end(), spurTones.begin(), spurTones.end());
  }
  emitted.insert(emitted.end(), tones.begin(), tones.end());
  *emittedFlag = true;
  rf.lastElement = actual.antennaIndex;
}

void CoordinatedGhostScheduler::actuate(
    std::size_t idx, double t, std::uint64_t frame,
    std::vector<env::PointScatterer>& emitted) {
  ReflectorFleet::Reflector& rf = fleet_.at(idx);
  const fault::FrameFaults ff = rf.schedule->at(t);
  const double dt = config_.frameDtS;
  const int ghostId = kFleetGhostIdBase + static_cast<int>(idx);
  const Vec2 ghostWorld = ghostAt(t);

  const auto commit = [&](ControlCommand cmd) {
    rf.lastCommand = cmd;
    rf.hasLast = true;
    rf.lastApparent = rf.controller->apparentWorld(cmd);
    bool didEmit = false;
    radiate(idx, cmd, ff, emitted, &didEmit);
    ghostLedger_.add(ghostId, t, cmd, didEmit);
  };

  const ControlCommand cmd0 =
      planCommand(idx, ghostWorld, t, t, /*checkContinuity=*/true);
  if (cmd0.decision == HealthDecision::kPaused) {
    // Infeasible regardless of the link; nothing worth transmitting.
    ghostLedger_.add(ghostId, t, cmd0, false);
    return;
  }

  transport::LinkWatchdog& wd = rf.link.watchdog();
  if (wd.shouldAttempt(frame)) {
    transport::ControlFrame ctrl;
    ctrl.seq = frame;
    ctrl.ghostId = ghostId;
    ctrl.schedule.push_back(cmd0);
    const int depth = config_.transport.scheduleDepth - 1;
    for (int i = 1; i <= depth; ++i) {
      const double tAhead = t + static_cast<double>(i) * dt;
      if (!ghostActiveAt(tAhead)) break;
      const ControlCommand ahead = planCommand(idx, ghostAt(tAhead), tAhead,
                                               t, /*checkContinuity=*/false);
      if (ahead.decision == HealthDecision::kPaused) break;
      ctrl.schedule.push_back(ahead);
    }

    const transport::TransferResult r = rf.link.transfer(
        frame, ctrl, transport::ChannelCondition::fromFaults(ff), dt);
    if (r.delivered) {
      if (wd.onDelivery(frame)) ++rf.link.stats().reacquisitions;
      rf.coastSchedule = r.frame->schedule;
      rf.scheduleBaseFrame = frame;
      rf.parkedStreak = 0;
      ControlCommand cmd = rf.coastSchedule.front();
      if (rf.fadeLevel < 1.0) {
        rf.fadeLevel = std::min(
            1.0, rf.fadeLevel +
                     1.0 / static_cast<double>(config_.transport.fadeFrames));
        if (rf.fadeLevel < 1.0) cmd.gain *= rf.fadeLevel;
      }
      commit(cmd);
      return;
    }
    wd.onMiss(frame);
  }

  // Missed frame (or parked backoff): degrade like the single-panel loop.
  if (wd.state() == transport::LinkState::kDegraded) {
    const std::uint64_t i = frame - rf.scheduleBaseFrame;
    if (!rf.coastSchedule.empty() && i < rf.coastSchedule.size()) {
      ControlCommand cmd = rf.coastSchedule[static_cast<std::size_t>(i)];
      cmd.decision = HealthDecision::kCoasted;
      if (!rf.hasLast ||
          distance(rf.controller->apparentWorld(cmd), rf.lastApparent) <=
              config_.transport.coastMaxApparentStepM) {
        ++rf.link.stats().coastFrames;
        rf.parkedStreak = 0;
        commit(cmd);
        return;
      }
    }
    wd.park(frame);  // schedule exhausted or stale: give up gracefully
  }

  // Parked: fade out, count the streak (the fleet's health machine turns a
  // long streak into a kLost declaration and a re-solve).
  ++rf.link.stats().parkedFrames;
  ++rf.parkedStreak;
  rf.fadeLevel = std::max(
      0.0, rf.fadeLevel -
               1.0 / static_cast<double>(config_.transport.fadeFrames));
  if (rf.hasLast && rf.fadeLevel > 0.0) {
    ControlCommand cmd = rf.lastCommand;
    cmd.decision = HealthDecision::kParked;
    cmd.gain *= rf.fadeLevel;
    bool didEmit = false;
    radiate(idx, cmd, ff, emitted, &didEmit);
    ghostLedger_.add(ghostId, t, cmd, didEmit);
  } else {
    ControlCommand dark;
    dark.intendedWorld = ghostWorld;
    dark.decision = HealthDecision::kParked;
    ghostLedger_.add(ghostId, t, dark, false);
  }
}

std::vector<std::vector<env::PointScatterer>>
CoordinatedGhostScheduler::step(double t) {
  const auto frame = static_cast<std::uint64_t>(
      std::max<long long>(0, std::llround(t / config_.frameDtS)));

  const std::vector<ReflectorHealth> before = fleet_.healths();
  const bool changed = fleet_.updateHealth(t);
  if (!solvedOnce_ || changed) {
    std::string reason;
    if (!solvedOnce_) {
      reason = "initial";
    } else {
      const std::vector<ReflectorHealth> after = fleet_.healths();
      for (std::size_t i = 0; i < after.size(); ++i) {
        if (after[i] == before[i]) continue;
        if (!reason.empty()) reason += "; ";
        reason += "reflector " + std::to_string(i) + " " +
                  healthName(before[i]) + "->" + healthName(after[i]);
      }
      if (reason.empty()) reason = "usable set changed";
    }
    resolveAssignments(t, frame, reason);
  }

  std::vector<std::vector<env::PointScatterer>> views(radars_.size());
  if (!ghostActiveAt(t)) return views;

  // Actuate each assigned reflector, then compose the per-radar views:
  // each panel's emission weighted by its directivity toward the observer
  // (boresight = the assigned radar).
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    ReflectorFleet::Reflector& rf = fleet_.at(i);
    if (rf.assignedRadar < 0 || rf.health == ReflectorHealth::kLost) {
      continue;
    }
    std::vector<env::PointScatterer> emitted;
    actuate(i, t, frame, emitted);
    if (emitted.empty()) continue;
    const Vec2 boresightTarget =
        radars_[static_cast<std::size_t>(rf.assignedRadar)].position;
    for (std::size_t r = 0; r < radars_.size(); ++r) {
      const Vec2 observer = radars_[r].position;
      for (env::PointScatterer s : emitted) {
        s.amplitude *= config_.directivity.gainToward(
            s.position, boresightTarget, observer);
        // Walls off the panel's boresight only receive sidelobe power, so
        // its multipath images are sidelobe-scaled too.
        s.multipathGain = config_.directivity.sidelobeAmplitude;
        views[r].push_back(s);
      }
    }
  }
  return views;
}

std::vector<Vec2> placeCentralGhost(const env::FloorPlan& plan,
                                    const trajectory::Trace& centeredTrace) {
  if (centeredTrace.points.size() < 2) {
    throw std::invalid_argument("placeCentralGhost: trace too short");
  }
  const Vec2 center{plan.width() * 0.5, plan.height() * 0.5};
  std::vector<Vec2> out;
  out.reserve(centeredTrace.points.size());
  for (const Vec2& p : centeredTrace.points) {
    out.push_back(plan.clamp(center + p, 0.5));
  }
  return out;
}

}  // namespace rfp::defense
