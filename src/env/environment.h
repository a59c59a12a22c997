#pragma once

/// \file environment.h
/// The simulated world: a floor plan plus its occupants. Produces the
/// per-frame scatterer list the radar front end consumes, including static
/// clutter and first-order wall multipath.
///
/// Order (DESIGN.md Sec. 8). Each human's stochastic draws (RCS jitter)
/// come from the caller's Rng in human order -- the repo-wide
/// seeded-stream contract -- and its wall images, pure geometry, follow
/// it in the list.

#include <optional>
#include <vector>

#include "common/rng.h"
#include "env/floorplan.h"
#include "env/human.h"
#include "env/scatterer.h"

namespace rfp::env {

/// Tuning knobs for snapshot generation.
struct SnapshotOptions {
  bool includeClutter = true;     ///< static furniture/walls
  bool includeMultipath = true;   ///< first-order wall images of dynamic
                                  ///< scatterers
  double multipathLoss = 0.5;     ///< extra amplitude loss on image paths
  double rcsJitter = 0.1;         ///< human RCS fluctuation (fraction)
  /// Radar position used to validate that mirror images correspond to
  /// physically realizable bounces (see FloorPlan::multipathImages).
  std::optional<rfp::common::Vec2> multipathObserver;
};

/// A floor plan populated with humans.
class Environment {
 public:
  explicit Environment(FloorPlan plan) : plan_(std::move(plan)) {}

  const FloorPlan& plan() const { return plan_; }
  std::vector<Human>& humans() { return humans_; }
  const std::vector<Human>& humans() const { return humans_; }

  /// Adds a human; returns its id (sequential from 0).
  int addHuman(TimedPath path, BreathingModel breathing = {},
               double baseAmplitude = 1.0);

  /// All scatterers the radar can see at time \p t: humans (with breathing
  /// radial offsets and RCS jitter), static clutter, and first-order wall
  /// multipath of the dynamic scatterers.
  std::vector<PointScatterer> snapshot(double t, rfp::common::Rng& rng,
                                       const SnapshotOptions& opts = {}) const;

  /// snapshot() into a reused buffer (\p out is cleared first): identical
  /// contents and RNG consumption, and no allocation once \p out's
  /// capacity holds the scene (the fleet scenario's per-frame path).
  void snapshotInto(std::vector<PointScatterer>& out, double t,
                    rfp::common::Rng& rng,
                    const SnapshotOptions& opts = {}) const;

 private:
  FloorPlan plan_;
  std::vector<Human> humans_;
};

}  // namespace rfp::env
