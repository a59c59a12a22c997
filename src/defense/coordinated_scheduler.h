#pragma once

/// \file coordinated_scheduler.h
/// The fleet's brain: from one shared ghost trajectory, solve which
/// reflector plays which attacker radar's range/angle program so every
/// radar in the network localizes the same phantom position -- and keep
/// that promise as reflectors drop out.
///
/// Per frame:
///   1. advance every reflector's health machine (fault belief + link
///      watchdog heartbeat),
///   2. if the usable set changed, re-solve the reflector->radar
///      assignment (Hungarian over spoof-fidelity costs, filled on the
///      calling thread; seeded epsilon tie-breaks keep ties
///      deterministic) and ledger the decision with the resulting
///      degrade tier,
///   3. actuate each assigned reflector over its own control link
///      (schedule lookahead, coasting, park-with-fade -- the PR 2 loop,
///      one instance per physical reflector),
///   4. compose per-radar scatterer views: each panel's emission is
///      weighted by its directivity pattern toward each observer.
///
/// The re-solve runs synchronously inside step(), i.e. within the same
/// 50 ms actuation frame that detected the dropout; the bench reports the
/// wall-clock cost (lastResolveUs) to show the deadline holds.

#include <cstdint>
#include <vector>

#include "common/vec2.h"
#include "core/attack_config.h"
#include "defense/fleet.h"
#include "env/floorplan.h"
#include "env/scatterer.h"
#include "reflector/ghost_ledger.h"
#include "trajectory/trace.h"

namespace rfp::defense {

/// Coordinates a ReflectorFleet spoofing one shared phantom against N
/// attacker radars. step(t) is directly usable as a
/// core::DefenseInjector.
class CoordinatedGhostScheduler {
 public:
  /// \p radars in attack order (index 0 = the primary; priority under
  /// partial coverage follows this order). \p ghostPoints is the shared
  /// phantom trajectory in world coordinates, active from \p startTimeS,
  /// sampled every \p pointDtS. Throws std::invalid_argument on an empty
  /// radar list, a trajectory shorter than two points, or an invalid
  /// fleet config.
  CoordinatedGhostScheduler(FleetConfig config,
                            std::vector<core::RadarPose> radars,
                            std::vector<rfp::common::Vec2> ghostPoints,
                            double startTimeS, double pointDtS);

  /// One actuation frame at time \p t: returns one scatterer list per
  /// radar (same order as the radar list) -- what that radar's front end
  /// receives from the whole fleet this frame.
  std::vector<std::vector<env::PointScatterer>> step(double t);

  DefenseTier tier() const { return tier_; }
  int resolveCount() const { return resolveCount_; }
  /// Wall-clock cost of the most recent assignment re-solve [us]
  /// (diagnostic only; never enters the ledgers).
  double lastResolveUs() const { return lastResolveUs_; }
  const FailoverLedger& failoverLedger() const { return failoverLedger_; }
  const reflector::GhostLedger& ghostLedger() const { return ghostLedger_; }
  const ReflectorFleet& fleet() const { return fleet_; }
  /// Per reflector: assigned radar index or -1.
  const std::vector<int>& assignment() const { return assignment_; }

  bool ghostActiveAt(double t) const;
  rfp::common::Vec2 ghostAt(double t) const;

 private:
  void resolveAssignments(double t, std::uint64_t frame,
                          const std::string& reason);
  /// Plans reflector \p idx's (recovery-constrained) command toward
  /// \p ghostWorld for frame time \p tCmd, with the fault belief held at
  /// \p tBelief. Returns kPaused when infeasible, discontinuous, or
  /// non-finite.
  reflector::ControlCommand planCommand(std::size_t idx,
                                        rfp::common::Vec2 ghostWorld,
                                        double tCmd, double tBelief,
                                        bool checkContinuity) const;
  /// Runs reflector \p idx's link-actuation loop for frame \p frame and
  /// appends whatever it radiates to \p emitted (directivity applied
  /// later, per observer).
  void actuate(std::size_t idx, double t, std::uint64_t frame,
               std::vector<env::PointScatterer>& emitted);
  /// Drives \p cmd into reflector \p idx's impaired hardware.
  void radiate(std::size_t idx, const reflector::ControlCommand& cmd,
               const fault::FrameFaults& ff,
               std::vector<env::PointScatterer>& emitted, bool* emittedFlag);

  FleetConfig config_;
  std::vector<core::RadarPose> radars_;
  std::vector<rfp::common::Vec2> ghostPoints_;
  double startTimeS_ = 0.0;
  double pointDtS_ = 0.2;
  ReflectorFleet fleet_;
  std::vector<int> assignment_;
  DefenseTier tier_ = DefenseTier::kPaused;
  int resolveCount_ = 0;
  double lastResolveUs_ = 0.0;
  bool solvedOnce_ = false;
  FailoverLedger failoverLedger_;
  reflector::GhostLedger ghostLedger_;
};

/// Places a centered trace around the room's center (clamped 0.5 m inside
/// the walls): a shared phantom trajectory every fleet reflector can
/// reach, since central points sit beyond every wall-mounted panel.
/// Deterministic (no RNG).
std::vector<rfp::common::Vec2> placeCentralGhost(
    const env::FloorPlan& plan, const trajectory::Trace& centeredTrace);

}  // namespace rfp::defense
