/// \file home_privacy.cpp
/// The paper's motivating scenario (Sec. 1 / Sec. 7): an eavesdropper
/// monitors a home through the wall; RF-Protect fills it with phantoms.
/// Shows instance-level corruption (occupant counting through the actual
/// radar pipeline) and distribution-level protection (mutual information).
///
///   ./home_privacy

#include <cstdio>

#include "common/rng.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "tracking/stitcher.h"
#include "tracking/tracker.h"
#include "privacy/mutual_information.h"
#include "privacy/occupancy_attack.h"
#include "trajectory/human_walk.h"

int main() {
  using namespace rfp;
  common::Rng rng(11);

  std::printf("RF-Protect: protecting a home from through-wall counting\n");
  std::printf("=========================================================\n\n");

  // --- Part 1: the radar actually sees extra people. --------------------
  const core::Scenario scenario = core::makeHomeScenario();
  env::Environment environment(scenario.plan);

  // One real occupant pacing near the far side of the home.
  trajectory::WalkModelOptions walkOpts;
  walkOpts.roomWidthM = scenario.plan.width();
  walkOpts.roomHeightM = scenario.plan.height();
  trajectory::HumanWalkModel walker(walkOpts);
  const auto humanPath = walker.longWalk(10.0, 0.05, rng);
  environment.addHuman(env::TimedPath(humanPath, 0.05));

  // RF-Protect spoofs two phantoms.
  core::EavesdropperRadar radar(scenario.sensing);
  tracking::MultiTargetTracker tracker(scenario.sensing.tracker);
  core::RfProtectSystem system(scenario.makeController());
  trajectory::HumanWalkModel ghostWalker;  // trajectory statistics source
  for (int g = 0; g < 2; ++g) {
    trajectory::Trace ghost;
    do {
      ghost = trajectory::centered(ghostWalker.sample(rng));
    } while (trajectory::motionRange(ghost) > 4.5);
    system.addGhostAuto(ghost, 0.1, scenario.plan, rng);
  }

  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  for (double t = 0.0; t <= 10.0; t += dt) {
    const auto injected = system.injectAt(t);
    const auto scatterers = core::combineScatterers(
        environment, t, rng, scenario.snapshot, injected);
    if (const auto obs = radar.observe(scatterers, t, rng)) {
      tracker.update(obs->detections, t);
    }
  }

  tracking::StitchOptions stitchOpts;
  stitchOpts.minLength = 25;
  const auto tracks = tracking::stitchTracker(tracker, stitchOpts);
  std::printf("True occupants           : 1\n");
  std::printf("Phantoms injected        : 2\n");
  std::printf("Eavesdropper's count     : %zu moving targets\n\n",
              tracks.size());

  // --- Part 2: distribution-level privacy (paper Sec. 7, Fig. 7). -------
  privacy::OccupancyModel model;
  model.maxOccupants = 4;      // N
  model.moveProbability = 0.2; // p
  model.maxPhantoms = 4;       // M
  model.phantomProbability = 0.5;  // q -- RF-Protect's control knob

  std::printf("Occupancy model: X ~ Bin(%d, %.1f), Y ~ Bin(%d, q)\n",
              model.maxOccupants, model.moveProbability, model.maxPhantoms);
  std::printf("Information leaked I(X;Z) without phantoms: %.3f bits\n",
              privacy::occupancyMutualInformation(
                  {model.maxOccupants, model.moveProbability,
                   model.maxPhantoms, 0.0}));
  std::printf("Information leaked I(X;Z) at q = 0.5      : %.3f bits\n\n",
              privacy::occupancyMutualInformation(model));

  const auto status = privacy::occupancyStatusAttack(model, 50000, rng);
  const auto counting = privacy::occupantCountingAttack(model, 50000, rng);
  std::printf("Attack accuracy           unprotected   protected\n");
  std::printf("  is-someone-home             %5.1f%%      %5.1f%%\n",
              100.0 * status.baselineAccuracy, 100.0 * status.accuracy);
  std::printf("  exact occupant count        %5.1f%%      %5.1f%%\n",
              100.0 * counting.baselineAccuracy, 100.0 * counting.accuracy);

  const auto dist = privacy::occupancyDistributionAttack(model, 50000, rng);
  std::printf("  mean-occupancy estimate     %.2f         %.2f  (truth %.2f)\n",
              dist.trueMeanOccupancy + dist.baselineAbsoluteError,
              dist.estimatedMeanOccupancy, dist.trueMeanOccupancy);
  std::printf("\nBreathing identification: with %d real and %d fake breaths,"
              "\nthe eavesdropper's best guess is right %.0f%% of the time.\n",
              1, 3, 100.0 * privacy::breathingGuessProbability(1, 3));
  return 0;
}
