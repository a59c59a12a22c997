#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/rng.h"
#include "trajectory/baselines.h"
#include "trajectory/dataset_io.h"
#include "trajectory/features.h"
#include "trajectory/human_walk.h"
#include "trajectory/trace.h"

namespace rfp::trajectory {
namespace {

using rfp::common::Vec2;

Trace lineTrace(double length) {
  Trace t;
  for (int i = 0; i < rfp::common::kTracePoints; ++i) {
    t.points.push_back({length * i / (rfp::common::kTracePoints - 1), 0.0});
  }
  return t;
}

TEST(Trace, GeometryHelpers) {
  const Trace t = lineTrace(4.0);
  EXPECT_NEAR(motionRange(t), 4.0, 1e-12);
  EXPECT_NEAR(pathLength(t), 4.0, 1e-12);
  EXPECT_NEAR(netDisplacement(t), 4.0, 1e-12);
}

TEST(Trace, RangeClassThresholds) {
  EXPECT_EQ(rangeClassOf(lineTrace(0.3)), 0);
  EXPECT_EQ(rangeClassOf(lineTrace(1.0)), 1);
  EXPECT_EQ(rangeClassOf(lineTrace(2.0)), 2);
  EXPECT_EQ(rangeClassOf(lineTrace(4.0)), 3);
  EXPECT_EQ(rangeClassOf(lineTrace(7.0)), 4);
}

TEST(Trace, CenteredHasZeroCentroid) {
  Trace t = lineTrace(3.0);
  for (Vec2& p : t.points) p += Vec2{5.0, 2.0};
  const Trace c = centered(t);
  Vec2 sum{};
  for (const Vec2& p : c.points) sum += p;
  EXPECT_NEAR(sum.norm(), 0.0, 1e-9);
  // Shape preserved.
  EXPECT_NEAR(motionRange(c), motionRange(t), 1e-12);
}

TEST(Trace, ResampleEndpointsAndLength) {
  const std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}};
  const auto r = resample(pts, 9);
  ASSERT_EQ(r.size(), 9u);
  EXPECT_EQ(r.front(), pts.front());
  EXPECT_EQ(r.back(), pts.back());
  const auto single = resample({{2.0, 3.0}}, 4);
  EXPECT_EQ(single[3], (Vec2{2.0, 3.0}));
  EXPECT_THROW(resample({}, 5), std::invalid_argument);
  EXPECT_THROW(resample(pts, 0), std::invalid_argument);
}

TEST(Trace, MatrixRoundTrip) {
  rfp::common::Rng rng(1);
  HumanWalkModel model;
  const std::vector<Trace> traces = model.dataset(5, rng);
  const linalg::Matrix m = tracesToMatrix(traces);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 100u);
  const Trace back = traceFromRow(m, 2, traces[2].label);
  for (std::size_t i = 0; i < back.points.size(); ++i) {
    EXPECT_NEAR(back.points[i].x, traces[2].points[i].x, 1e-12);
    EXPECT_NEAR(back.points[i].y, traces[2].points[i].y, 1e-12);
  }
  EXPECT_THROW(traceFromRow(m, 9, 0), std::invalid_argument);
}

TEST(HumanWalkModel, TracesHavePaperShape) {
  rfp::common::Rng rng(2);
  HumanWalkModel model;
  const Trace t = model.sample(rng);
  EXPECT_EQ(t.points.size(),
            static_cast<std::size_t>(rfp::common::kTracePoints));
  EXPECT_GE(t.label, 0);
  EXPECT_LT(t.label, rfp::common::kRangeClasses);
}

TEST(HumanWalkModel, WalkerStaysInRoom) {
  rfp::common::Rng rng(3);
  WalkModelOptions opts;
  HumanWalkModel model(opts);
  const auto walk = model.longWalk(60.0, 0.1, rng);
  for (const Vec2& p : walk) {
    EXPECT_GE(p.x, opts.wallMarginM - 1e-9);
    EXPECT_LE(p.x, opts.roomWidthM - opts.wallMarginM + 1e-9);
    EXPECT_GE(p.y, opts.wallMarginM - 1e-9);
    EXPECT_LE(p.y, opts.roomHeightM - opts.wallMarginM + 1e-9);
  }
}

TEST(HumanWalkModel, SpeedIsHumanScale) {
  rfp::common::Rng rng(4);
  HumanWalkModel model;
  const auto walk = model.longWalk(30.0, 0.2, rng);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    const double speed = distance(walk[i], walk[i - 1]) / 0.2;
    EXPECT_LT(speed, 3.0);  // no teleporting
  }
}

TEST(HumanWalkModel, DatasetCoversMultipleRangeClasses) {
  rfp::common::Rng rng(5);
  HumanWalkModel model;
  const auto dataset = model.dataset(300, rng);
  std::vector<int> hist(rfp::common::kRangeClasses, 0);
  for (const Trace& t : dataset) hist[t.label] += 1;
  int nonEmpty = 0;
  for (int h : hist) {
    if (h > 0) ++nonEmpty;
  }
  EXPECT_GE(nonEmpty, 3) << "walker should produce diverse motion ranges";
}

TEST(ScriptedPaths, CoverExpectedExtents) {
  const auto l = scriptedLPath({1.0, 1.0}, 3.0, 1.0, 0.1);
  EXPECT_GT(l.size(), 50u);
  EXPECT_EQ(l.front(), (Vec2{1.0, 1.0}));
  EXPECT_EQ(l.back(), (Vec2{1.0, 1.0}));

  const auto rect = scriptedRectanglePath({1.0, 1.0}, 4.0, 2.0, 1.0, 0.1);
  double maxX = 0.0;
  double maxY = 0.0;
  for (const Vec2& p : rect) {
    maxX = std::max(maxX, p.x);
    maxY = std::max(maxY, p.y);
  }
  EXPECT_NEAR(maxX, 5.0, 1e-9);
  EXPECT_NEAR(maxY, 3.0, 1e-9);
}

TEST(Baselines, SingleTrajIsLowVariance) {
  rfp::common::Rng rng(6);
  HumanWalkModel model;
  const Trace templ = model.sample(rng);
  const auto repeated = singleTrajectoryBaseline(templ, 20, rng, 0.02);
  ASSERT_EQ(repeated.size(), 20u);
  for (const Trace& t : repeated) {
    // Every repetition stays within execution noise of the template.
    for (std::size_t i = 0; i < t.points.size(); ++i) {
      EXPECT_LT(distance(t.points[i], templ.points[i]), 0.2);
    }
  }
}

TEST(Baselines, UlmIsPerfectlyStraight) {
  rfp::common::Rng rng(7);
  const auto ulm = uniformLinearMotionBaseline(10, rng);
  for (const Trace& t : ulm) {
    const double straightness = netDisplacement(t) / pathLength(t);
    EXPECT_NEAR(straightness, 1.0, 1e-9);
  }
}

TEST(Baselines, RandomWalkIsJagged) {
  rfp::common::Rng rng(8);
  const auto random = randomMotionBaseline(10, rng);
  const auto ulm = uniformLinearMotionBaseline(10, rng);
  // Random motion has far lower straightness than linear motion.
  double avgStraightRandom = 0.0;
  for (const Trace& t : random) {
    avgStraightRandom += netDisplacement(t) / pathLength(t);
  }
  avgStraightRandom /= 10.0;
  EXPECT_LT(avgStraightRandom, 0.6);
}

TEST(Features, DimensionsAndSanity) {
  rfp::common::Rng rng(9);
  HumanWalkModel model;
  const Trace t = model.sample(rng);
  const auto f = traceFeatures(t);
  ASSERT_EQ(f.size(), kNumTraceFeatures);
  EXPECT_GE(f[0], 0.0);                  // path length
  EXPECT_GE(f[3], 0.0);                  // straightness
  EXPECT_LE(f[3], 1.0 + 1e-9);
  EXPECT_THROW(traceFeatures(Trace{}), std::invalid_argument);
}

TEST(Features, StraightLineSignature) {
  const auto f = traceFeatures(lineTrace(3.0));
  EXPECT_NEAR(f[3], 1.0, 1e-9);   // straightness
  EXPECT_NEAR(f[6], 0.0, 1e-9);   // no turning
  // Lag-1 autocorrelation approaches 1 (48/49 for the finite estimator).
  EXPECT_NEAR(f[8], 1.0, 0.03);
}

TEST(Features, MatrixShape) {
  rfp::common::Rng rng(10);
  HumanWalkModel model;
  const auto traces = model.dataset(7, rng);
  const auto fm = featureMatrix(traces);
  EXPECT_EQ(fm.rows(), 7u);
  EXPECT_EQ(fm.cols(), kNumTraceFeatures);
  EXPECT_THROW(featureMatrix({}), std::invalid_argument);
}

TEST(DatasetIo, CsvRoundTrip) {
  rfp::common::Rng rng(11);
  HumanWalkModel model;
  const auto traces = model.dataset(4, rng);
  const std::string path = rfp::test::tempPath("traces.csv");
  saveTracesCsv(path, traces);
  const auto loaded = loadTracesCsv(path);
  ASSERT_EQ(loaded.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(loaded[i].label, traces[i].label);
    ASSERT_EQ(loaded[i].points.size(), traces[i].points.size());
    for (std::size_t k = 0; k < traces[i].points.size(); ++k) {
      EXPECT_NEAR(loaded[i].points[k].x, traces[i].points[k].x, 1e-6);
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetIo, MissingFileThrows) {
  EXPECT_THROW(loadTracesCsv("/nonexistent/nope.csv"), std::runtime_error);
}

TEST(DatasetIo, MalformedRowsThrowWithFileAndLine) {
  const std::string path = rfp::test::tempPath("bad_traces.csv");
  const char* bad[] = {
      "0,1.0\n",                // odd coordinate count (truncated row)
      "0\n",                    // no coordinates at all
      "0,1.0,nan\n",            // non-finite coordinate
      "0,1.0,inf\n",
      "0,1.0,2.0x\n",           // trailing garbage in a number
      "0,1.0,oops\n",           // not a number
      "label,1.0,2.0\n",        // non-numeric label
      "0.5,1.0,2.0\n",          // fractional label
      "7,1.0,2.0\n",            // motion class out of range [0, 5)
      "-1,1.0,2.0\n",           // negative motion class
      "1,3.0,4.0\n",            // fewer points than row 1 (truncated record)
      "1,1.0,1.0,2.0,2.0,3.0,3.0\n",  // more points than row 1
  };
  for (const char* text : bad) {
    {
      std::ofstream out(path);
      out << "1,0.0,0.0,1.0,1.0\n" << text;
    }
    try {
      loadTracesCsv(path);
      FAIL() << "expected std::runtime_error for: " << text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path + ":2"), std::string::npos) << msg;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rfp::trajectory
