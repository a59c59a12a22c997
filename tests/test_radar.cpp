#include <cmath>

#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/rng.h"
#include "radar/config.h"
#include "radar/frontend.h"
#include "radar/processor.h"

namespace rfp::radar {
namespace {

using rfp::common::Vec2;

RadarConfig testConfig() {
  RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-6;
  return cfg;
}

TEST(ChirpConfig, PaperParameters) {
  const ChirpConfig chirp;
  EXPECT_DOUBLE_EQ(chirp.bandwidth(), 1e9);
  EXPECT_DOUBLE_EQ(chirp.slope(), 2e12);
  // Paper Sec. 11.1: range resolution of the prototype is ~15 cm.
  EXPECT_NEAR(chirp.rangeResolution(), 0.15, 0.001);
  EXPECT_EQ(chirp.samplesPerChirp(), 500u);
}

TEST(ChirpConfig, BeatFrequencyDistanceRoundTrip) {
  const ChirpConfig chirp;
  for (double d : {0.5, 1.0, 5.0, 12.0}) {
    EXPECT_NEAR(chirp.distanceAt(chirp.beatFrequencyAt(d)), d, 1e-9);
  }
  // 15 m -> 200 kHz beat for the paper's slope.
  EXPECT_NEAR(chirp.beatFrequencyAt(15.0), 200e3, 200.0);
}

TEST(ChirpConfig, ValidationCatchesBadSetups) {
  ChirpConfig bad;
  bad.stopHz = bad.startHz;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  ChirpConfig fast;
  fast.sampleRateHz = 1000.0;  // 0.5 samples per chirp
  EXPECT_THROW(fast.validate(), std::invalid_argument);
}

TEST(RadarConfig, AntennaGeometry) {
  const RadarConfig cfg = testConfig();
  EXPECT_NEAR(cfg.spacing(), 0.4 * cfg.chirp.wavelength(), 1e-12);
  RadarConfig half = cfg;
  half.spacingWavelengths = 0.5;
  EXPECT_NEAR(half.spacing(), 0.5 * half.chirp.wavelength(), 1e-12);
  const Vec2 p3 = cfg.antennaPosition(3);
  EXPECT_NEAR(p3.x, cfg.position.x + 3.0 * cfg.spacing(), 1e-12);
  EXPECT_NEAR(cfg.angularResolution(), rfp::common::pi() / 7.0, 1e-12);
}

class RangeAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(RangeAccuracyTest, StaticScattererLocalizedWithinOneBin) {
  const double range = GetParam();
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(17);

  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.0, range};  // broadside
  const Frame frame = fe.synthesize(std::vector<env::PointScatterer>{s},
                                    0.0, rng);
  const RangeAngleMap map = proc.process(frame);
  const auto [ri, ai] = map.argmax();
  EXPECT_NEAR(map.rangesM[ri], range, cfg.chirp.rangeResolution());
  EXPECT_NEAR(rfp::common::rad2deg(map.anglesRad[ai]), 90.0, 2.5);
}

INSTANTIATE_TEST_SUITE_P(Ranges, RangeAccuracyTest,
                         ::testing::Values(2.0, 2.5, 4.0, 6.0, 9.0, 12.0));

TEST(AngleEstimation, NearFieldTargetsShowBoundedBias) {
  // Below ~2 m the target is inside the array's near field; the linear
  // phase fit is biased by wavefront curvature. The bias must stay small
  // enough that room-scale tracking is unaffected.
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(19);
  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.0, 1.0};
  const Frame frame = fe.synthesize(std::vector<env::PointScatterer>{s},
                                    0.0, rng);
  const RangeAngleMap map = proc.process(frame);
  const auto [ri, ai] = map.argmax();
  EXPECT_NEAR(rfp::common::rad2deg(map.anglesRad[ai]), 90.0, 8.0);
}

class AngleAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(AngleAccuracyTest, ScattererAngleRecovered) {
  const double angleDeg = GetParam();
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(23);

  const double angle = rfp::common::deg2rad(angleDeg);
  env::PointScatterer s;
  s.position = cfg.position + Vec2{std::cos(angle), std::sin(angle)} * 5.0;
  const Frame frame = fe.synthesize(std::vector<env::PointScatterer>{s},
                                    0.0, rng);
  const RangeAngleMap map = proc.process(frame);
  const auto [ri, ai] = map.argmax();
  EXPECT_NEAR(rfp::common::rad2deg(map.anglesRad[ai]), angleDeg, 3.0);
  EXPECT_NEAR(map.rangesM[ri], 5.0, cfg.chirp.rangeResolution());
}

INSTANTIATE_TEST_SUITE_P(Angles, AngleAccuracyTest,
                         ::testing::Values(40.0, 60.0, 90.0, 120.0, 150.0));

TEST(Frontend, BeatFrequencyOffsetSpoofsRange) {
  // The RF-Protect principle (paper Eq. 3): adding f_switch to the beat
  // moves the apparent reflector by C * f_switch / (2 * sl).
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(29);

  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.5, 1.2};
  const double trueRange = (s.position - cfg.position).norm();
  const double extra = 4.0;
  s.beatFreqOffsetHz = 2.0 * cfg.chirp.slope() * extra /
                       rfp::common::kSpeedOfLight;

  const Frame frame = fe.synthesize(std::vector<env::PointScatterer>{s},
                                    0.0, rng);
  const RangeAngleMap map = proc.process(frame);
  const auto [ri, ai] = map.argmax();
  EXPECT_NEAR(map.rangesM[ri], trueRange + extra,
              cfg.chirp.rangeResolution());
}

TEST(Frontend, PathLossReducesFarTargets) {
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  EXPECT_GT(fe.pathAmplitude(2.0), fe.pathAmplitude(8.0));
  EXPECT_NEAR(fe.pathAmplitude(cfg.pathLossRefM), 1.0, 1e-12);
  // Guard distance: no blow-up at zero range.
  EXPECT_LT(fe.pathAmplitude(0.0), 1e3);
}

TEST(Frontend, RadialOffsetShiftsPhase) {
  // Breathing: a millimeter-scale radial offset changes the beat phase but
  // not the peak bin.
  RadarConfig cfg = testConfig();
  cfg.noisePower = 0.0;
  const Frontend fe(cfg);
  rfp::common::Rng rng(31);

  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.0, 3.0};
  const Frame f0 = fe.synthesize(std::vector<env::PointScatterer>{s}, 0.0,
                                 rng);
  s.radialOffsetM = 0.004;
  const Frame f1 = fe.synthesize(std::vector<env::PointScatterer>{s}, 0.0,
                                 rng);

  // Correlate the two frames: phase rotation = 2 pi f0 * 2 * delta / C.
  std::complex<double> corr{};
  for (std::size_t n = 0; n < f0.samplesPerChirp(); ++n) {
    corr += f1.samples[0][n] * std::conj(f0.samples[0][n]);
  }
  const double measuredPhase = std::arg(corr);
  // The correlation-weighted phase corresponds to the sweep *center*
  // frequency (the same effect that sets the steering wavelength).
  const double centerHz = 0.5 * (cfg.chirp.startHz + cfg.chirp.stopHz);
  const double expectedPhase = 2.0 * rfp::common::pi() * centerHz * 2.0 *
                               0.004 / rfp::common::kSpeedOfLight;
  const double wrapped =
      std::remainder(expectedPhase, 2.0 * rfp::common::pi());
  EXPECT_NEAR(measuredPhase, wrapped, 0.05);
}

TEST(Processor, BackgroundSubtractionRemovesStaticKeepsMoving) {
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  Processor proc(cfg);
  rfp::common::Rng rng(37);

  env::PointScatterer still;
  still.position = cfg.position + Vec2{-1.0, 4.0};
  still.amplitude = 2.0;

  env::PointScatterer moving;
  moving.position = cfg.position + Vec2{1.0, 5.0};

  const Frame frameA = fe.synthesize(
      std::vector<env::PointScatterer>{still, moving}, 0.0, rng);
  moving.position += Vec2{0.0, 0.4};
  const Frame frameB = fe.synthesize(
      std::vector<env::PointScatterer>{still, moving}, 0.05, rng);

  EXPECT_EQ(proc.backgroundDiff(frameA), nullptr);
  const Frame* diff = proc.backgroundDiff(frameB);
  ASSERT_NE(diff, nullptr);
  const RangeAngleMap diffMap = proc.process(*diff);

  // The residual peak must be at the mover, not the (stronger) static one.
  const auto [ri, ai] = diffMap.argmax();
  const Vec2 peakWorld = proc.toWorld(diffMap.rangesM[ri],
                                      diffMap.anglesRad[ai]);
  EXPECT_LT(distance(peakWorld, moving.position), 0.6);
}

TEST(Processor, WorldPolarRoundTrip) {
  const RadarConfig cfg = testConfig();
  const Processor proc(cfg);
  const Vec2 p{2.0, 4.0};
  const auto polar = proc.toRadarPolar(p);
  const Vec2 back = proc.toWorld(polar.range, polar.angle);
  EXPECT_NEAR(back.x, p.x, 1e-9);
  EXPECT_NEAR(back.y, p.y, 1e-9);
}

TEST(Processor, MapAxesAreMonotone) {
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(41);
  const Frame frame = fe.synthesize({}, 0.0, rng);
  const RangeAngleMap map = proc.process(frame);
  for (std::size_t i = 1; i < map.rangesM.size(); ++i) {
    EXPECT_GT(map.rangesM[i], map.rangesM[i - 1]);
  }
  for (std::size_t i = 1; i < map.anglesRad.size(); ++i) {
    EXPECT_GT(map.anglesRad[i], map.anglesRad[i - 1]);
  }
  EXPECT_GE(map.rangesM.front(), proc.options().minRangeM);
  EXPECT_LE(map.rangesM.back(), proc.options().maxRangeM + 0.1);
}

TEST(Processor, FrameShapeMismatchThrows) {
  const RadarConfig cfg = testConfig();
  const Processor proc(cfg);
  Frame bad;
  bad.samples.assign(3, std::vector<Complex>(10));
  EXPECT_THROW(proc.process(bad), std::invalid_argument);
}

// A ragged frame -- antennas with different sample counts -- must be
// rejected by every entry point, not sized by antenna 0. A paper frame
// whose last antenna holds 1,500 samples made the range FFT write past
// its per-antenna slot.
TEST(Processor, RaggedFrameThrows) {
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  const Processor proc(cfg);
  rfp::common::Rng rng(43);
  Frame frame = fe.synthesize({}, 0.0, rng);
  frame.samples.back().resize(1500);
  EXPECT_THROW(proc.process(frame), std::invalid_argument);
}

TEST(Processor, BackgroundDiffRejectsRaggedFrames) {
  const RadarConfig cfg = testConfig();
  const Frontend fe(cfg);
  rfp::common::Rng rng(47);
  const Frame frame = fe.synthesize({}, 0.0, rng);
  Frame shortAntenna = frame;
  shortAntenna.samples[1].resize(400);
  // A ragged frame stored at priming, then a full one: the difference
  // read past the stored antenna.
  Processor primedRagged(cfg);
  EXPECT_THROW(
      {
        primedRagged.backgroundDiff(shortAntenna);
        primedRagged.backgroundDiff(frame);
      },
      std::invalid_argument);
  // A full frame stored, then one with a longer antenna 1.
  Frame longAntenna = frame;
  longAntenna.samples[1].resize(600);
  Processor primedFull(cfg);
  EXPECT_EQ(primedFull.backgroundDiff(frame), nullptr);
  EXPECT_THROW(primedFull.backgroundDiff(longAntenna), std::invalid_argument);
}

// Background subtraction of a frame shaped like the primed one subtracts
// sample by sample; a frame with another sample count throws.
TEST(Frame, SubtractionChecksShape) {
  Processor proc(testConfig());
  Frame a;
  a.samples.assign(2, std::vector<Complex>(4, {1.0, 0.0}));
  EXPECT_EQ(proc.backgroundDiff(a), nullptr);
  const Frame* d = proc.backgroundDiff(a);
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(std::abs(d->samples[0][0]), 0.0);
  Frame c;
  c.samples.assign(2, std::vector<Complex>(5));
  EXPECT_THROW(proc.backgroundDiff(c), std::invalid_argument);
}

TEST(RangeAngleMap, ArgmaxAndPower) {
  RangeAngleMap map;
  map.rangesM = {1.0, 2.0};
  map.anglesRad = {0.5, 1.0, 1.5};
  map.power.assign(6, 1.0);
  map.at(1, 2) = 9.0;
  const auto [r, a] = map.argmax();
  EXPECT_EQ(r, 1u);
  EXPECT_EQ(a, 2u);
  EXPECT_DOUBLE_EQ(map.maxPower(), 9.0);
  EXPECT_DOUBLE_EQ(map.totalPower(), 14.0);
}

}  // namespace
}  // namespace rfp::radar
