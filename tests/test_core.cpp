#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "expect_scatterers.h"

#include "common/constants.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/breathing_analysis.h"
#include "core/harness.h"
#include "core/legit_sensor.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "trajectory/human_walk.h"

namespace rfp::core {
namespace {

using rfp::common::Vec2;

TEST(Scenario, PresetsAreConsistent) {
  for (const Scenario& s : {makeOfficeScenario(), makeHomeScenario()}) {
    EXPECT_NO_THROW(s.sensing.radar.validate());
    // Radar and panel on the same wall, ~1.2 m apart (paper Sec. 9.3).
    const Vec2 panelCenter =
        (s.panel.position(0) + s.panel.position(s.panel.count() - 1)) * 0.5;
    const double gap = distance(panelCenter, s.sensing.radar.position);
    EXPECT_GT(gap, 0.8);
    EXPECT_LT(gap, 2.2);
    // The panel must sit inside the room.
    for (const Vec2& p : s.panel.positions()) {
      EXPECT_TRUE(s.plan.contains(p));
    }
    EXPECT_EQ(s.panel.count(), rfp::common::kPanelAntennas);
  }
}

TEST(Ghost, ActivationAndInterpolation) {
  Ghost g;
  g.id = 1000;
  g.startTimeS = 1.0;
  g.pointDtS = 0.5;
  g.placedPoints = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}};
  EXPECT_FALSE(g.activeAt(0.5));
  EXPECT_TRUE(g.activeAt(1.0));
  EXPECT_TRUE(g.activeAt(2.0));
  EXPECT_FALSE(g.activeAt(2.1));
  EXPECT_EQ(g.positionAt(1.25), (Vec2{0.5, 0.0}));
  EXPECT_EQ(g.positionAt(99.0), (Vec2{1.0, 1.0}));
}

TEST(AlignPrincipalAxis, RotatesLongAxisOntoTarget) {
  // A cloud elongated along y, re-aligned onto x.
  std::vector<Vec2> pts;
  for (int i = -10; i <= 10; ++i) {
    pts.push_back({0.05 * i, 0.4 * i});
  }
  const auto aligned = alignPrincipalAxis(pts, {1.0, 0.0});
  double spreadX = 0.0;
  double spreadY = 0.0;
  for (const Vec2& p : aligned) {
    spreadX += p.x * p.x;
    spreadY += p.y * p.y;
  }
  EXPECT_GT(spreadX, 10.0 * spreadY);
}

TEST(RfProtectSystem, GhostSchedulingAndLedger) {
  const Scenario scenario = makeOfficeScenario();
  RfProtectSystem system(scenario.makeController());
  rfp::common::Rng rng(1);

  trajectory::Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.points.push_back({0.02 * i - 0.5, 0.01 * i});
  }
  const int id = system.addGhostAuto(trace, 0.0, scenario.plan, rng);
  EXPECT_GE(id, RfProtectSystem::kGhostIdBase);

  const auto tones = system.injectAt(1.0);
  EXPECT_FALSE(tones.empty());
  for (const auto& t : tones) EXPECT_EQ(t.sourceId, id);
  EXPECT_FALSE(system.ledger().records().empty());

  const auto pos = system.intendedPosition(id, 1.0);
  ASSERT_TRUE(pos.has_value());
  EXPECT_TRUE(scenario.plan.contains(*pos));

  // Outside the active window nothing is injected.
  EXPECT_TRUE(system.injectAt(100.0).empty());
  EXPECT_FALSE(system.intendedPosition(id, 100.0).has_value());
}

TEST(RfProtectSystem, AutoPlacementKeepsGhostBeyondPanel) {
  const Scenario scenario = makeHomeScenario();
  RfProtectSystem system(scenario.makeController());
  rfp::common::Rng rng(2);
  trajectory::HumanWalkModel model;
  for (int run = 0; run < 5; ++run) {
    const auto trace = trajectory::centered(model.sample(rng));
    const int id = system.addGhostAuto(trace, 0.0, scenario.plan, rng);
    const Vec2 radar = scenario.controllerConfig.assumedRadarPosition;
    for (double t : {0.0, 3.0, 7.0, 9.9}) {
      const auto pos = system.intendedPosition(id, t);
      ASSERT_TRUE(pos.has_value());
      // Ghost must be farther from the radar than the nearest antenna.
      double minAntennaRange = 1e9;
      for (const Vec2& a : scenario.panel.positions()) {
        minAntennaRange = std::min(minAntennaRange, distance(a, radar));
      }
      EXPECT_GT(distance(*pos, radar), minAntennaRange);
    }
  }
}

TEST(CombineScatterers, AddsInjectedMultipath) {
  const Scenario scenario = makeOfficeScenario();
  const env::SnapshotOptions& opts = scenario.snapshot;
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath::stationary({3.0, 2.5}));
  environment.addHuman(env::TimedPath({{7.5, 5.0}, {2.0, 4.0}}, 0.6));
  rfp::common::Rng rng(3);

  // Two ghosts (dynamic) around a static injected reflection, which gets
  // no images.
  std::vector<env::PointScatterer> injected(3);
  injected[0].position = {4.0, 3.0};
  injected[0].sourceId = 1000;
  injected[0].beatFreqOffsetHz = 250.0;
  injected[1].position = {8.0, 1.5};
  injected[1].dynamic = false;
  injected[1].sourceId = 1001;
  injected[2].position = {1.5, 5.0};
  injected[2].sourceId = 1002;
  injected[2].multipathGain = 0.25;

  rfp::common::Rng draws = rng;
  const auto with =
      combineScatterers(environment, 0.3, rng, opts, injected);

  // The whole list: each human's primary, drawn in human order, and its
  // wall images; the clutter; then each injected scatterer, followed by
  // its images when it is dynamic.
  const env::FloorPlan& plan = environment.plan();
  std::vector<env::PointScatterer> want;
  const auto appendImages = [&](const env::PointScatterer& s) {
    for (const env::PointScatterer& img :
         plan.multipathImages(s, opts.multipathLoss, opts.multipathObserver)) {
      want.push_back(img);
    }
  };
  for (const env::Human& h : environment.humans()) {
    const env::PointScatterer primary = h.scatterAt(0.3, draws, opts.rcsJitter);
    want.push_back(primary);
    appendImages(primary);
  }
  for (const env::PointScatterer& c : plan.clutter()) want.push_back(c);
  const std::size_t sceneSize = want.size();
  for (const env::PointScatterer& s : injected) {
    want.push_back(s);
    if (s.dynamic) appendImages(s);
  }
  expectSameScatterers(with, want);
  EXPECT_GT(with.size(), sceneSize + injected.size());  // images of both ghosts

  const auto without = combineScatterers(environment, 0.3, rng, opts, {});
  EXPECT_EQ(without.size(), sceneSize);
}

TEST(EavesdropperRadar, FirstFrameIsBackgroundPrimer) {
  const Scenario scenario = makeOfficeScenario();
  EavesdropperRadar radar(scenario.sensing);
  rfp::common::Rng rng(4);
  env::Environment environment(scenario.plan);
  const auto scatterers =
      combineScatterers(environment, 0.0, rng, scenario.snapshot, {});
  EXPECT_FALSE(radar.observe(scatterers, 0.0, rng).has_value());
  EXPECT_TRUE(radar.observe(scatterers, 0.05, rng).has_value());
  radar.reset();
  EXPECT_FALSE(radar.observe(scatterers, 0.1, rng).has_value());
}

TEST(SpoofingExperiment, ReproducesPaperAccuracyRegime) {
  const Scenario scenario = makeHomeScenario();
  rfp::common::Rng rng(5);
  trajectory::HumanWalkModel model;
  const auto trace = trajectory::centered(model.sample(rng));
  const auto result = runSpoofingExperiment(scenario, trace, rng);

  ASSERT_GT(result.framesDetected, result.framesTotal / 2);
  ASSERT_FALSE(result.distanceErrorsM.empty());
  // Paper Sec. 11.1: distance error within ~1 range bin, location error a
  // few tens of cm. Allow generous single-run slack.
  EXPECT_LT(rfp::common::median(result.distanceErrorsM), 0.20);
  EXPECT_LT(rfp::common::median(result.angleErrorsDeg), 10.0);
  ASSERT_FALSE(result.locationErrorsM.empty());
  EXPECT_LT(rfp::common::median(result.locationErrorsM), 0.5);
}

TEST(SpoofingArc, PinsExplicitGeometry) {
  const Scenario scenario = makeOfficeScenario();
  rfp::common::Rng rng(15);
  // Short radial segment along the panel's central bearing.
  const Vec2 radarPos = scenario.controllerConfig.assumedRadarPosition;
  const Vec2 mid = (scenario.panel.position(0) +
                    scenario.panel.position(scenario.panel.count() - 1)) *
                   0.5;
  const Vec2 radial = (mid - radarPos).normalized();
  trajectory::Trace trace;
  for (int i = 0; i < 50; ++i) {
    trace.points.push_back(radial * (0.02 * i - 0.5));
  }
  const auto result =
      runSpoofingArc(scenario, trace, radarPos + radial * 4.0, rng);
  ASSERT_GT(result.framesDetected, result.framesTotal / 2);
  EXPECT_LT(rfp::common::median(result.distanceErrorsM), 0.2);
}

TEST(LocalizationExperiment, TracksScriptedWalk) {
  const Scenario scenario = makeOfficeScenario();
  rfp::common::Rng rng(6);
  const auto path = trajectory::scriptedLPath({3.0, 3.0}, 2.0, 1.0, 0.05);
  const auto result = runLocalizationExperiment(scenario, path, 0.05, rng);
  ASSERT_GT(result.errorsM.size(), 20u);
  EXPECT_LT(rfp::common::median(result.errorsM), 0.5);
}

TEST(LegitimateSensing, LedgerFiltersGhostDetections) {
  const Scenario scenario = makeHomeScenario();
  rfp::common::Rng rng(7);
  trajectory::HumanWalkModel model;
  const auto ghostTrace = trajectory::centered(model.sample(rng));
  // Human walks a scripted rectangle elsewhere in the room.
  const auto humanPath =
      trajectory::scriptedRectanglePath({10.0, 3.0}, 2.5, 2.0, 0.8, 0.05);

  const auto result = runLegitimateSensingExperiment(
      scenario, humanPath, 0.05, ghostTrace, rng);

  // The eavesdropper sees at least two moving targets.
  EXPECT_GE(result.eavesdropperTrajectories.size(), 2u);
  // The legitimate sensor recovers the human within tracking error.
  ASSERT_GE(result.legitimateTrajectories.size(), 1u);
  EXPECT_GE(result.legitRecoveryErrorM, 0.0);
  EXPECT_LT(result.legitRecoveryErrorM, 1.0);
  // And its tracks exclude the ghost: every legit track must stay far from
  // the ghost path on average.
  for (const auto& track : result.legitimateTrajectories) {
    double ghostAffinity = 0.0;
    for (const Vec2& p : track) {
      double best = 1e9;
      for (const Vec2& g : result.ghostIntended) {
        best = std::min(best, distance(p, g));
      }
      ghostAffinity += best;
    }
    ghostAffinity /= static_cast<double>(track.size());
    EXPECT_GT(ghostAffinity, 0.8);
  }
}

TEST(BreathingAnalysis, DetrendRemovesMean) {
  const auto d = detrend({1.0, 2.0, 3.0});
  EXPECT_NEAR(d[0] + d[1] + d[2], 0.0, 1e-12);
}

TEST(BreathingAnalysis, EstimatesSyntheticRate) {
  // Pure sinusoidal series at 0.27 Hz sampled at 20 Hz.
  std::vector<double> series;
  for (int i = 0; i < 400; ++i) {
    series.push_back(
        0.4 * std::sin(2.0 * rfp::common::pi() * 0.27 * i / 20.0));
  }
  EXPECT_NEAR(estimateRateHz(series, 20.0), 0.27, 0.02);
  EXPECT_THROW(estimateRateHz({1.0, 2.0}, 20.0), std::invalid_argument);
  EXPECT_THROW(estimateRateHz(series, 20.0, 0.5, 0.5),
               std::invalid_argument);
}

TEST(BreathingAnalysis, ExtractsBreathingPhaseFromFrames) {
  // A static breathing human observed raw (no background subtraction):
  // the phase at the subject's bin oscillates at the breathing rate.
  const Scenario scenario = makeOfficeScenario();
  SensingConfig sensing = scenario.sensing;
  sensing.radar.noisePower = 1e-6;
  EavesdropperRadar radar(sensing);
  rfp::common::Rng rng(8);

  env::Environment environment(scenario.plan);
  env::BreathingModel breathing;
  breathing.rateHz = 0.3;
  breathing.amplitudeM = 0.006;
  const Vec2 subject{4.0, 3.0};
  environment.addHuman(env::TimedPath::stationary(subject), breathing);

  std::vector<radar::Frame> frames;
  const double frameRate = sensing.radar.frameRateHz;
  env::SnapshotOptions opts;
  opts.includeMultipath = false;
  opts.includeClutter = false;
  opts.rcsJitter = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double t = i / frameRate;
    const auto scatterers = environment.snapshot(t, rng, opts);
    frames.push_back(radar.senseRaw(scatterers, t, rng));
  }

  const double range = distance(subject, sensing.radar.position);
  const auto phases =
      extractPhaseSeries(frames, radar.processor(), range);
  ASSERT_EQ(phases.size(), frames.size());
  const double rate = estimateRateHz(phases, frameRate);
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(LegitSensor, PassesThroughWhenLedgerEmpty) {
  LegitimateSensor sensor;
  reflector::GhostLedger ledger;
  tracking::Detection d;
  d.world = {1.0, 1.0};
  d.timestampS = 0.0;
  const auto kept = sensor.update({d}, 0.0, ledger);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(LegitSensor, DropsLedgeredDetections) {
  LegitimateSensor sensor({}, 0.5);
  reflector::GhostLedger ledger;
  reflector::ControlCommand cmd;
  cmd.intendedWorld = {2.0, 2.0};
  ledger.add(1000, 0.0, cmd);

  tracking::Detection ghost;
  ghost.world = {2.2, 2.1};
  ghost.timestampS = 0.0;
  tracking::Detection real;
  real.world = {5.0, 5.0};
  real.timestampS = 0.0;
  const auto kept = sensor.update({ghost, real}, 0.0, ledger);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.front().world, (Vec2{5.0, 5.0}));
}

}  // namespace
}  // namespace rfp::core
