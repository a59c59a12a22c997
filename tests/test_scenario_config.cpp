#include "core/scenario_config.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "trajectory/human_walk.h"

namespace rfp::core {
namespace {

constexpr const char* kSample = R"(
# a 9.5 x 6 flat with a partition and two strong reflectors
room.name = flat
room.width = 9.5
room.height = 6.0
room.wall_reflectivity = 0.35
clutter = 2.0 5.5 0.8
clutter = 8.0 1.0 1.2
interior_wall = 4 0 4 3 0.4
radar.x = 3.0
radar.y = -0.8
radar.axis = 1 0
panel.base = 2.4 0.35
panel.direction = 1 0
panel.count = 8
panel.spacing = 0.2
multipath.loss = 0.45
)";

TEST(ScenarioConfig, ParsesAllFields) {
  std::istringstream in(kSample);
  const Scenario s = loadScenario(in);

  EXPECT_EQ(s.plan.name(), "flat");
  EXPECT_DOUBLE_EQ(s.plan.width(), 9.5);
  EXPECT_DOUBLE_EQ(s.plan.height(), 6.0);
  EXPECT_EQ(s.plan.clutter().size(), 2u);
  EXPECT_EQ(s.plan.walls().size(), 5u);  // 4 perimeter + 1 interior

  EXPECT_DOUBLE_EQ(s.sensing.radar.position.x, 3.0);
  EXPECT_DOUBLE_EQ(s.sensing.radar.position.y, -0.8);
  EXPECT_EQ(s.panel.count(), 8);
  EXPECT_DOUBLE_EQ(s.controllerConfig.assumedRadarPosition.x, 3.0);
  EXPECT_DOUBLE_EQ(s.snapshot.multipathLoss, 0.45);
  ASSERT_TRUE(s.snapshot.multipathObserver.has_value());
  EXPECT_DOUBLE_EQ(s.snapshot.multipathObserver->y, -0.8);
  // Detector bounds follow the custom room.
  ASSERT_TRUE(s.sensing.detector.bounds.has_value());
  EXPECT_NEAR(s.sensing.detector.bounds->hi.x, 10.25, 1e-9);
}

TEST(ScenarioConfig, DefaultsWhenEmpty) {
  std::istringstream in("# nothing but comments\n\n");
  const Scenario s = loadScenario(in);
  EXPECT_DOUBLE_EQ(s.plan.width(), 10.0);
  EXPECT_EQ(s.panel.count(), rfp::common::kPanelAntennas);
}

TEST(ScenarioConfig, RejectsUnknownKeysAndBadValues) {
  {
    std::istringstream in("room.widht = 9\n");  // typo
    EXPECT_THROW(loadScenario(in), std::runtime_error);
  }
  {
    std::istringstream in("room.width = very wide\n");
    EXPECT_THROW(loadScenario(in), std::runtime_error);
  }
  {
    std::istringstream in("clutter = 1 2\n");  // missing amplitude
    EXPECT_THROW(loadScenario(in), std::runtime_error);
  }
  {
    std::istringstream in("just some words\n");
    EXPECT_THROW(loadScenario(in), std::runtime_error);
  }
  EXPECT_THROW(loadScenarioFile("/nonexistent.scenario"),
               std::runtime_error);
}

TEST(ScenarioConfig, RejectsNonFiniteAndOutOfRangeValues) {
  const char* bad[] = {
      "room.width = nan\n",
      "room.width = inf\n",
      "room.width = -9\n",
      "room.width = 0\n",
      "room.wall_reflectivity = 1.5\n",
      "room.width = 9 extra\n",     // trailing garbage
      "radar.axis = 0 0\n",         // zero direction
      "panel.count = 2.5\n",        // non-integer count
      "panel.count = 0\n",
      "panel.count = 1e10\n",      // beyond int: no float-to-int overflow
      "radar.antennas = -3e9\n",
      "panel.spacing = -0.2\n",
      "clutter = 1 2 -0.5\n",       // negative amplitude
      "interior_wall = 0 0 1 1 2\n",  // reflectivity out of range
      "multipath.loss = -0.1\n",
      "fault.intensity = 1.5\n",
      "fault.intensity = nan\n",
      "fault.phase_bits = 20\n",
      "fault.phase_bits = 4294967297\n",
      "fault.control_drop_prob = -0.2\n",
      "fault.adc_clip_level = 0\n",
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(loadScenario(in), std::runtime_error) << text;
  }
}

TEST(ScenarioConfig, ErrorNamesSourceAndLine) {
  std::istringstream in("room.width = 9\nroom.height = tall\n");
  try {
    loadScenario(in, "flat.scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flat.scenario:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("room.height"), std::string::npos) << msg;
  }
}

TEST(ScenarioConfig, ParsesRadarCostKnobs) {
  std::istringstream in(
      "radar.sample_rate = 250000\n"
      "radar.antennas = 5\n");
  const Scenario s = loadScenario(in);
  EXPECT_DOUBLE_EQ(s.sensing.radar.chirp.sampleRateHz, 250000.0);
  EXPECT_EQ(s.sensing.radar.numAntennas, 5);
  // 500 us chirp at 250 kHz: the sensing chain still has 125 samples.
  EXPECT_EQ(s.sensing.radar.chirp.samplesPerChirp(), 125u);
}

TEST(ScenarioConfig, SemanticRadarErrorNamesSourceAndLine) {
  // 10 kHz over the 500 us office chirp is 5 samples per chirp: each key
  // parses fine on its own, only RadarConfig::validate() rejects the
  // combination. The diagnostic must still point at source:line -- the
  // last radar.* line -- like every syntactic error does.
  std::istringstream in(
      "room.width = 9\n"
      "radar.sample_rate = 10000\n");
  try {
    loadScenario(in, "cheap.scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cheap.scenario:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("invalid radar config"), std::string::npos) << msg;
    EXPECT_NE(msg.find("radar.sample_rate = 10000"), std::string::npos)
        << msg;
  }
}

TEST(ScenarioConfig, ParsesFaultModel) {
  std::istringstream in(
      "fault.intensity = 0.3\n"
      "fault.seed = 1234\n"
      "fault.dead_antenna_prob = 0.5\n"
      "fault.stuck_switch_rate = 0.4\n"
      "fault.switch_jitter = 0.1\n"
      "fault.phase_bits = 5\n"
      "fault.control_drop_prob = 0.25\n"
      "fault.radar_drop_prob = 0.05\n"
      "fault.adc_clip_level = 0.2\n");
  const Scenario s = loadScenario(in);
  EXPECT_DOUBLE_EQ(s.faults.intensity, 0.3);
  EXPECT_EQ(s.faults.seed, 1234u);
  EXPECT_DOUBLE_EQ(s.faults.deadAntennaProb, 0.5);
  EXPECT_DOUBLE_EQ(s.faults.stuckSwitchRatePerS, 0.4);
  EXPECT_DOUBLE_EQ(s.faults.switchJitterRel, 0.1);
  EXPECT_EQ(s.faults.phaseShifterBits, 5);
  EXPECT_DOUBLE_EQ(s.faults.controlDropProb, 0.25);
  EXPECT_DOUBLE_EQ(s.faults.radarDropProb, 0.05);
  EXPECT_DOUBLE_EQ(s.faults.adcClipLevel, 0.2);
}

TEST(ScenarioConfig, ParsesMultiRadarAttackModel) {
  std::istringstream in(
      "attack.match_radius = 0.8\n"
      "attack.radar = -0.8 3.0 0 -1\n"
      "attack.radar = 10.8 3.0 0 1\n");
  const Scenario s = loadScenario(in);
  EXPECT_DOUBLE_EQ(s.attack.matchRadiusM, 0.8);
  ASSERT_EQ(s.attack.secondaries.size(), 2u);
  EXPECT_DOUBLE_EQ(s.attack.secondaries[0].position.x, -0.8);
  EXPECT_DOUBLE_EQ(s.attack.secondaries[0].position.y, 3.0);
  EXPECT_DOUBLE_EQ(s.attack.secondaries[0].arrayAxis.y, -1.0);
  EXPECT_DOUBLE_EQ(s.attack.secondaries[1].position.x, 10.8);
  // Defaults: no secondaries configured (legacy left-wall mount), 1 m.
  std::istringstream empty("");
  const Scenario d = loadScenario(empty);
  EXPECT_TRUE(d.attack.secondaries.empty());
  EXPECT_DOUBLE_EQ(d.attack.matchRadiusM, 1.0);
}

TEST(ScenarioConfig, RejectsBadAttackKeysWithSourceAndLine) {
  const char* bad[] = {
      "attack.match_radius = 0\n",
      "attack.match_radius = inf\n",
      "attack.radar = 1 2 0 0\n",  // zero array axis
      "attack.radar = 1 2 3\n",    // missing axis component
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(loadScenario(in), std::runtime_error) << text;
  }
  std::istringstream in("room.width = 9\nattack.radar = 1 2 0 0\n");
  try {
    loadScenario(in, "net.scenario");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("net.scenario:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("axis"), std::string::npos) << msg;
  }
}

TEST(ScenarioConfig, LoadedScenarioRunsEndToEnd) {
  std::istringstream in(kSample);
  const Scenario scenario = loadScenario(in);
  rfp::common::Rng rng(9);
  trajectory::HumanWalkModel model;
  trajectory::Trace trace;
  do {
    trace = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(trace) > 3.5);

  const auto result = runSpoofingExperiment(scenario, trace, rng);
  EXPECT_GT(result.framesDetected, result.framesTotal / 3);
  ASSERT_FALSE(result.distanceErrorsM.empty());
  EXPECT_LT(rfp::common::median(result.distanceErrorsM), 0.25);
}

}  // namespace
}  // namespace rfp::core
