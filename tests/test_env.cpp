#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "expect_scatterers.h"

#include "common/rng.h"
#include "env/environment.h"
#include "env/floorplan.h"
#include "env/human.h"

namespace rfp::env {
namespace {

using rfp::common::Vec2;

TEST(Wall, MirrorAcrossHorizontalWall) {
  const Wall w{{0.0, 0.0}, {10.0, 0.0}, 0.3};
  const Vec2 img = w.mirror({3.0, 2.0});
  EXPECT_NEAR(img.x, 3.0, 1e-12);
  EXPECT_NEAR(img.y, -2.0, 1e-12);
}

TEST(Wall, MirrorAcrossDiagonalWall) {
  const Wall w{{0.0, 0.0}, {1.0, 1.0}, 0.3};
  const Vec2 img = w.mirror({1.0, 0.0});
  EXPECT_NEAR(img.x, 0.0, 1e-12);
  EXPECT_NEAR(img.y, 1.0, 1e-12);
}

TEST(Wall, FootWithinSegment) {
  const Wall w{{0.0, 0.0}, {10.0, 0.0}, 0.3};
  EXPECT_TRUE(w.footWithinSegment({5.0, 3.0}));
  EXPECT_FALSE(w.footWithinSegment({-1.0, 3.0}));
  EXPECT_FALSE(w.footWithinSegment({11.0, 3.0}));
}

TEST(FloorPlan, PresetsMatchPaperDimensions) {
  const FloorPlan office = FloorPlan::office();
  EXPECT_DOUBLE_EQ(office.width(), 10.0);
  EXPECT_DOUBLE_EQ(office.height(), 6.6);
  EXPECT_EQ(office.name(), "office");
  EXPECT_GE(office.walls().size(), 4u);
  EXPECT_FALSE(office.clutter().empty());

  const FloorPlan home = FloorPlan::home();
  EXPECT_DOUBLE_EQ(home.width(), 15.24);
  EXPECT_DOUBLE_EQ(home.height(), 7.62);
}

TEST(FloorPlan, ContainsAndClamp) {
  const FloorPlan plan("t", 10.0, 5.0);
  EXPECT_TRUE(plan.contains({5.0, 2.5}));
  EXPECT_FALSE(plan.contains({-0.1, 2.5}));
  EXPECT_FALSE(plan.contains({5.0, 5.1}));
  const Vec2 c = plan.clamp({12.0, -3.0}, 0.5);
  EXPECT_DOUBLE_EQ(c.x, 9.5);
  EXPECT_DOUBLE_EQ(c.y, 0.5);
}

TEST(FloorPlan, RejectsBadDimensions) {
  EXPECT_THROW(FloorPlan("bad", 0.0, 5.0), std::invalid_argument);
  EXPECT_THROW(FloorPlan("bad", 5.0, -1.0), std::invalid_argument);
}

TEST(FloorPlan, MultipathImagesAreMirroredAndAttenuated) {
  const FloorPlan plan("t", 10.0, 5.0, 0.4);
  PointScatterer s;
  s.position = {3.0, 2.0};
  s.amplitude = 1.0;
  s.sourceId = 7;
  const auto images = plan.multipathImages(s, 0.5);
  ASSERT_EQ(images.size(), 4u);  // all four perimeter walls see the foot
  for (const auto& img : images) {
    EXPECT_FALSE(plan.contains(img.position));  // mirrored outside
    EXPECT_NEAR(img.amplitude, 0.4 * 0.5, 1e-12);
    EXPECT_EQ(img.sourceId, 7);
  }
}

TEST(FloorPlan, MultipathImagesMatchWallMirrorBitForBit) {
  // Perimeter walls, two interior walls added later (one slanted) and a
  // zero-length wall, which has no specular foot and so no image.
  FloorPlan plan("t", 7.3, 4.9, 0.35);
  plan.addWall({{2.1, 0.3}, {2.9, 3.7}, 0.5});
  plan.addWall({{5.0, 1.0}, {5.0, 4.0}, 0.4});
  plan.addWall({{3.0, 3.0}, {3.0, 3.0}, 0.6});
  rfp::common::Rng rng(9);
  std::vector<PointScatterer> got;
  std::size_t images = 0;
  for (int i = 0; i < 400; ++i) {
    PointScatterer s;
    s.position = {rng.uniform(0.1, 7.2), rng.uniform(0.1, 4.8)};
    const std::optional<Vec2> observer =
        i % 2 == 0 ? std::nullopt : std::optional<Vec2>(Vec2{3.6, 0.05});
    got.clear();
    plan.appendMultipathImages(s, 0.7, observer, got);
    std::vector<Vec2> want;
    for (const Wall& w : plan.walls()) {
      if (!w.footWithinSegment(s.position)) continue;
      const Vec2 img = w.mirror(s.position);
      if (observer && !w.segmentIntersects(*observer, img)) continue;
      want.push_back(img);
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(std::memcmp(&got[k].position, &want[k], sizeof(Vec2)), 0);
    }
    images += want.size();
  }
  EXPECT_GT(images, 800u);
}

TEST(Wall, SegmentIntersectsProperCrossings) {
  const Wall w{{0.0, 0.0}, {10.0, 0.0}, 0.3};
  // Crosses the wall.
  EXPECT_TRUE(w.segmentIntersects({2.0, -1.0}, {3.0, 1.0}));
  // Entirely on one side.
  EXPECT_FALSE(w.segmentIntersects({2.0, 1.0}, {3.0, 2.0}));
  EXPECT_FALSE(w.segmentIntersects({2.0, -1.0}, {3.0, -2.0}));
  // Crosses the wall's infinite line but outside the segment.
  EXPECT_FALSE(w.segmentIntersects({12.0, -1.0}, {12.0, 1.0}));
}

TEST(FloorPlan, MultipathObserverRejectsImpossibleBounces) {
  const FloorPlan plan("t", 10.0, 5.0, 0.4);
  PointScatterer s;
  s.position = {5.0, 0.5};  // hugging the bottom wall
  s.amplitude = 1.0;

  // Observer *behind* the bottom wall: the image across that wall lies on
  // the observer's side, the observer->image segment never crosses the
  // wall, so that bounce must be rejected; images across the other walls
  // (top/left/right) are kept.
  const Vec2 outsideObserver{5.0, -1.0};
  const auto validated =
      plan.multipathImages(s, 1.0, outsideObserver);
  for (const auto& img : validated) {
    EXPECT_GT(img.position.y, 0.5) << "bottom-wall image must be rejected";
  }

  // Without an observer all four first-order images are produced.
  const auto unchecked = plan.multipathImages(s, 1.0);
  EXPECT_GT(unchecked.size(), validated.size());
}

TEST(TimedPath, InterpolatesAndClamps) {
  const TimedPath path({{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}}, 1.0);
  EXPECT_EQ(path.at(-1.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(path.at(0.5), (Vec2{1.0, 0.0}));
  EXPECT_EQ(path.at(1.5), (Vec2{2.0, 1.0}));
  EXPECT_EQ(path.at(99.0), (Vec2{2.0, 2.0}));
  EXPECT_DOUBLE_EQ(path.duration(), 2.0);
}

TEST(TimedPath, StationaryAndValidation) {
  const TimedPath still = TimedPath::stationary({1.0, 1.0});
  EXPECT_EQ(still.at(1000.0), (Vec2{1.0, 1.0}));
  EXPECT_THROW(TimedPath({}, 1.0), std::invalid_argument);
  EXPECT_THROW(TimedPath({{0.0, 0.0}}, 0.0), std::invalid_argument);
}

TEST(BreathingModel, DisplacementIsSinusoidal) {
  BreathingModel b;
  b.rateHz = 0.25;
  b.amplitudeM = 0.005;
  EXPECT_NEAR(b.displacement(0.0), 0.0, 1e-12);
  EXPECT_NEAR(b.displacement(1.0), 0.005, 1e-12);  // quarter period
  EXPECT_NEAR(b.displacement(2.0), 0.0, 1e-12);
  EXPECT_NEAR(b.displacement(3.0), -0.005, 1e-12);
}

TEST(Human, ScatterCarriesBreathingAndId) {
  rfp::common::Rng rng(3);
  BreathingModel b;
  b.rateHz = 0.25;
  b.amplitudeM = 0.004;
  const Human h(5, TimedPath::stationary({2.0, 3.0}), b, 1.2);
  const PointScatterer s = h.scatterAt(1.0, rng, 0.0);
  EXPECT_EQ(s.sourceId, 5);
  EXPECT_TRUE(s.dynamic);
  EXPECT_NEAR(s.radialOffsetM, 0.004, 1e-12);
  EXPECT_DOUBLE_EQ(s.amplitude, 1.2);  // zero jitter
  EXPECT_EQ(s.position, (Vec2{2.0, 3.0}));
}

TEST(Human, RcsJitterVariesAmplitudeButStaysPositive) {
  rfp::common::Rng rng(9);
  const Human h(0, TimedPath::stationary({1.0, 1.0}));
  double minAmp = 1e9;
  double maxAmp = -1e9;
  for (int i = 0; i < 200; ++i) {
    const double a = h.scatterAt(0.0, rng, 0.3).amplitude;
    minAmp = std::min(minAmp, a);
    maxAmp = std::max(maxAmp, a);
    EXPECT_GT(a, 0.0);
  }
  EXPECT_LT(minAmp, maxAmp);
}

TEST(Environment, SnapshotContents) {
  rfp::common::Rng rng(1);
  Environment environment(FloorPlan::office());
  const int id0 = environment.addHuman(TimedPath::stationary({3.0, 3.0}));
  const int id1 = environment.addHuman(TimedPath::stationary({6.0, 2.0}));
  const int id2 =
      environment.addHuman(TimedPath({{1.0, 5.5}, {8.5, 0.8}}, 0.8));
  EXPECT_EQ(id0, 0);
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);

  SnapshotOptions opts;
  opts.includeMultipath = false;
  opts.includeClutter = false;
  const auto bare = environment.snapshot(0.0, rng, opts);
  EXPECT_EQ(bare.size(), 3u);

  opts.includeClutter = true;
  const auto withClutter = environment.snapshot(0.0, rng, opts);
  EXPECT_EQ(withClutter.size(),
            3u + FloorPlan::office().clutter().size());

  // The whole list, with and without an observer: each human's primary,
  // drawn in human order, followed by its wall images, then the clutter.
  opts.includeMultipath = true;
  std::size_t images = 0;
  for (const std::optional<Vec2> observer :
       {std::optional<Vec2>{}, std::optional<Vec2>{Vec2{5.0, 0.05}}}) {
    opts.multipathObserver = observer;
    rfp::common::Rng draws = rng;
    const auto full = environment.snapshot(0.4, rng, opts);
    std::vector<PointScatterer> want;
    for (const Human& h : environment.humans()) {
      const PointScatterer primary = h.scatterAt(0.4, draws, opts.rcsJitter);
      want.push_back(primary);
      for (const PointScatterer& img : environment.plan().multipathImages(
               primary, opts.multipathLoss, observer)) {
        want.push_back(img);
      }
    }
    images += want.size() - environment.humans().size();
    for (const PointScatterer& c : environment.plan().clutter()) {
      want.push_back(c);
    }
    expectSameScatterers(full, want);
    // Multipath images inherit the human's source id and dynamic flag.
    std::size_t dynamicCount = 0;
    for (const auto& s : full) {
      if (s.dynamic) ++dynamicCount;
    }
    EXPECT_GT(dynamicCount, 3u);
  }
  EXPECT_GT(images, 6u);
}

TEST(Human, RejectsNonPositiveAmplitude) {
  EXPECT_THROW(Human(0, TimedPath::stationary({0.0, 0.0}), {}, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace rfp::env
