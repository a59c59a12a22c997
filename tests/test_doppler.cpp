#include "radar/doppler.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scenario.h"
#include "env/environment.h"
#include "radar/frontend.h"
#include "reflector/controller.h"

namespace rfp::radar {
namespace {

using rfp::common::Vec2;

RadarConfig testConfig() {
  RadarConfig cfg;
  cfg.position = {4.0, -0.8};
  cfg.noisePower = 1e-7;
  return cfg;
}

/// Synthesizes a burst of chirps at \p priS for a target moving radially at
/// \p velocity m/s (receding positive).
std::vector<Frame> movingTargetBurst(const RadarConfig& cfg, double range0,
                                     double velocity, double priS,
                                     std::size_t chirps,
                                     rfp::common::Rng& rng) {
  const Frontend fe(cfg);
  std::vector<Frame> burst;
  const Vec2 dir{0.0, 1.0};
  for (std::size_t m = 0; m < chirps; ++m) {
    const double t = static_cast<double>(m) * priS;
    env::PointScatterer s;
    s.position = cfg.position + dir * (range0 + velocity * t);
    burst.push_back(
        fe.synthesize(std::vector<env::PointScatterer>{s}, t, rng));
  }
  return burst;
}

TEST(Doppler, StaticTargetLandsAtZeroVelocity) {
  const RadarConfig cfg = testConfig();
  rfp::common::Rng rng(1);
  const auto burst = movingTargetBurst(cfg, 5.0, 0.0, 1e-3, 32, rng);
  const auto map = computeRangeDoppler(burst, cfg);
  const auto [ri, vi] = map.argmax();
  EXPECT_NEAR(map.rangesM[ri], 5.0, 0.2);
  EXPECT_NEAR(map.velocitiesMps[vi], 0.0, 0.15);
}

class DopplerVelocityTest : public ::testing::TestWithParam<double> {};

TEST_P(DopplerVelocityTest, MovingTargetVelocityRecovered) {
  const double velocity = GetParam();
  const RadarConfig cfg = testConfig();
  rfp::common::Rng rng(7);
  const double pri = 1e-3;  // PRF 1 kHz -> unambiguous |v| < 11.5 m/s
  const auto burst = movingTargetBurst(cfg, 5.0, velocity, pri, 64, rng);
  const auto map = computeRangeDoppler(burst, cfg);
  const auto [ri, vi] = map.argmax();
  EXPECT_NEAR(map.velocitiesMps[vi], velocity, 0.35) << "v=" << velocity;
}

INSTANTIATE_TEST_SUITE_P(Velocities, DopplerVelocityTest,
                         ::testing::Values(-2.0, -0.8, 0.6, 1.2, 3.0));

TEST(Doppler, ZeroDopplerSuppressionRemovesStaticKeepsMoving) {
  const RadarConfig cfg = testConfig();
  rfp::common::Rng rng(3);
  const Frontend fe(cfg);
  const double pri = 1e-3;
  std::vector<Frame> burst;
  for (std::size_t m = 0; m < 64; ++m) {
    const double t = static_cast<double>(m) * pri;
    env::PointScatterer still;
    still.position = cfg.position + Vec2{0.5, 4.0};
    still.amplitude = 3.0;  // strong clutter
    env::PointScatterer mover;
    mover.position = cfg.position + Vec2{-0.5, 6.0 + 1.0 * t};
    burst.push_back(fe.synthesize(
        std::vector<env::PointScatterer>{still, mover}, t, rng));
  }
  auto map = computeRangeDoppler(burst, cfg);

  // Before suppression the static clutter dominates.
  auto [r0, v0] = map.argmax();
  EXPECT_NEAR(map.rangesM[r0], 4.06, 0.3);
  EXPECT_NEAR(map.velocitiesMps[v0], 0.0, 0.15);

  map.suppressZeroDoppler(1);
  auto [r1, v1] = map.argmax();
  EXPECT_NEAR(map.rangesM[r1], 6.05, 0.4);
  EXPECT_NEAR(map.velocitiesMps[v1], 1.0, 0.35);
}

TEST(Doppler, ValidationRejectsBadBursts) {
  const RadarConfig cfg = testConfig();
  rfp::common::Rng rng(5);
  const auto burst = movingTargetBurst(cfg, 5.0, 0.0, 1e-3, 4, rng);
  std::vector<Frame> tooFew(burst.begin(), burst.begin() + 2);
  EXPECT_THROW(computeRangeDoppler(tooFew, cfg), std::invalid_argument);

  auto badTiming = burst;
  badTiming[1].timestampS = badTiming[0].timestampS;
  EXPECT_THROW(computeRangeDoppler(badTiming, cfg), std::invalid_argument);
}

TEST(Doppler, RejectsRaggedFrames) {
  // Antenna 2 of one chirp is short; only antenna 0 is transformed, but
  // the frame is malformed all the same.
  const RadarConfig cfg = testConfig();
  rfp::common::Rng rng(5);
  auto burst = movingTargetBurst(cfg, 5.0, 0.0, 1e-3, 4, rng);
  burst[2].samples[2].resize(300);
  EXPECT_THROW(computeRangeDoppler(burst, cfg), std::invalid_argument);
}

TEST(Doppler, RetriggeredPhantomSitsAtZeroDoppler) {
  // A per-chirp re-triggered switch (constant switch phase) makes the
  // phantom look *static* in Doppler -- the counter an MTI eavesdropper
  // would exploit.
  const core::Scenario scenario = core::makeOfficeScenario();
  RadarConfig cfg = scenario.sensing.radar;
  cfg.noisePower = 1e-7;
  const Frontend fe(cfg);
  const auto controller = scenario.makeController();
  rfp::common::Rng rng(11);

  const Vec2 ghost{3.0, 4.0};
  std::vector<Frame> burst;
  for (std::size_t m = 0; m < 64; ++m) {
    const double t = static_cast<double>(m) * 1e-3;
    burst.push_back(fe.synthesize(controller.spoof(ghost, t, 1000), t, rng));
  }
  auto map = computeRangeDoppler(burst, cfg);
  const auto [ri, vi] = map.argmax();
  EXPECT_NEAR(map.velocitiesMps[vi], 0.0, 0.15);
  const double before = map.maxPower();
  map.suppressZeroDoppler(1);
  EXPECT_LT(map.maxPower(), before * 0.05);  // phantom excised
}

TEST(Doppler, FreeRunningPhantomShowsAlignedVelocity) {
  // The free-running, Doppler-aligned switch gives the phantom the
  // apparent velocity the controller requests -- it survives MTI.
  const core::Scenario scenario = core::makeOfficeScenario();
  RadarConfig cfg = scenario.sensing.radar;
  cfg.noisePower = 1e-7;
  const Frontend fe(cfg);
  const auto controller = scenario.makeController();
  rfp::common::Rng rng(13);

  const Vec2 ghost{3.0, 4.0};
  const double wantVelocity = 0.9;  // m/s receding
  const double pri = 1e-3;
  const auto tones =
      controller.spoofBurst(ghost, 0.0, pri, 64, wantVelocity, 1000);
  std::vector<Frame> burst;
  for (std::size_t m = 0; m < tones.size(); ++m) {
    burst.push_back(fe.synthesize(tones[m],
                                  static_cast<double>(m) * pri, rng));
  }
  auto map = computeRangeDoppler(burst, cfg);
  map.suppressZeroDoppler(1);
  const auto [ri, vi] = map.argmax();
  EXPECT_NEAR(map.velocitiesMps[vi], wantVelocity, 0.35);
  // And the apparent range is still the spoofed one.
  const auto intended =
      (ghost - cfg.position).norm();
  EXPECT_NEAR(map.rangesM[ri], intended, 0.3);
}

TEST(Controller, DopplerAlignmentMovesSwitchByLessThanHalfPrf) {
  const core::Scenario scenario = core::makeOfficeScenario();
  const auto controller = scenario.makeController();
  const double pri = 1e-3;
  for (double f : {40e3, 55.5e3, 90.1e3}) {
    for (double v : {-1.5, 0.0, 0.4, 2.0}) {
      const double aligned = controller.dopplerAlignedSwitchHz(f, v, pri);
      EXPECT_LE(std::fabs(aligned - f), 0.5 / pri + 1e-9);
      // Check the congruence: aligned mod prf == 2 v / lambda mod prf.
      const double fd =
          2.0 * v / controller.config().carrierWavelengthM;
      EXPECT_NEAR(std::remainder(aligned - fd, 1.0 / pri), 0.0, 1e-6);
    }
  }
  EXPECT_THROW(controller.dopplerAlignedSwitchHz(40e3, 1.0, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfp::radar
