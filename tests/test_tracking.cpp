#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/cpuid.h"
#include "common/rng.h"
#include "core/eavesdropper.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "core/scenario_config.h"
#include "linalg/decompositions.h"
#include "linalg/matrix.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "tracking/detection.h"
#include "tracking/hungarian.h"
#include "tracking/kalman.h"
#include "tracking/tracker.h"
#include "trajectory/human_walk.h"

namespace rfp::tracking {
namespace {

using rfp::common::Vec2;

bool sameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

radar::RadarConfig testRadar() {
  radar::RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-6;
  return cfg;
}

TEST(PeakDetector, FindsTwoSeparatedTargets) {
  const radar::RadarConfig cfg = testRadar();
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg);
  rfp::common::Rng rng(3);

  env::PointScatterer a;
  a.position = cfg.position + Vec2{-2.0, 4.0};
  env::PointScatterer b;
  b.position = cfg.position + Vec2{2.5, 6.0};
  const auto frame = fe.synthesize(std::vector<env::PointScatterer>{a, b},
                                   0.0, rng);
  const auto map = proc.process(frame);

  const PeakDetector detector;
  const auto detections = detector.detect(map, proc);
  ASSERT_GE(detections.size(), 2u);

  // Both true targets must be matched by some detection.
  for (const Vec2 truth : {a.position, b.position}) {
    double best = 1e9;
    for (const auto& d : detections) best = std::min(best, distance(d.world, truth));
    EXPECT_LT(best, 0.5);
  }
  // Strongest-first ordering.
  for (std::size_t i = 1; i < detections.size(); ++i) {
    EXPECT_LE(detections[i].power, detections[i - 1].power);
  }
}

TEST(PeakDetector, EmptySceneYieldsFewDetections) {
  const radar::RadarConfig cfg = testRadar();
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg);
  rfp::common::Rng rng(7);
  const auto frame = fe.synthesize({}, 0.0, rng);
  const auto map = proc.process(frame);
  const PeakDetector detector;
  // Pure-noise map: threshold = factor * median keeps detections sparse.
  EXPECT_LE(detector.detect(map, proc).size(), detector.options().maxDetections);
}

TEST(Kalman, ConvergesOnConstantVelocityTarget) {
  rfp::common::Rng rng(11);
  KalmanFilter2D kf({0.0, 0.0});
  const Vec2 vel{1.0, 0.5};
  Vec2 truth{0.0, 0.0};
  const double dt = 0.1;
  for (int i = 0; i < 100; ++i) {
    truth += vel * dt;
    kf.predict(dt);
    kf.update(truth + Vec2{rng.gaussian(0.0, 0.05),
                           rng.gaussian(0.0, 0.05)});
  }
  EXPECT_LT(distance(kf.position(), truth), 0.15);
  EXPECT_NEAR(kf.velocity().x, vel.x, 0.3);
  EXPECT_NEAR(kf.velocity().y, vel.y, 0.3);
}

TEST(Kalman, PredictGrowsUncertaintyUpdateShrinksIt) {
  KalmanFilter2D kf({1.0, 1.0});
  const double p0 = kf.xAxis().p[0];
  kf.predict(0.5);
  const double p1 = kf.xAxis().p[0];
  EXPECT_GT(p1, p0);
  kf.update({1.0, 1.0});
  const double p2 = kf.xAxis().p[0];
  EXPECT_LT(p2, p1);
}

TEST(Kalman, MahalanobisGrowsWithDistance) {
  KalmanFilter2D kf({0.0, 0.0});
  EXPECT_LT(kf.mahalanobis({0.05, 0.0}), kf.mahalanobis({1.0, 0.0}));
  EXPECT_LT(kf.mahalanobis({1.0, 0.0}), kf.mahalanobis({3.0, 0.0}));
}

TEST(Kalman, RejectsNonPositiveDt) {
  KalmanFilter2D kf({0.0, 0.0});
  EXPECT_THROW(kf.predict(0.0), std::invalid_argument);
  EXPECT_THROW(kf.predict(-1.0), std::invalid_argument);
}

/// The same filter written as one 4x4 filter on linalg::Matrix, whose
/// products run gemm() at the active kernel level: the oracle of the
/// per-axis KalmanFilter2D, run at sse2.
class MatrixKalman {
  using Matrix = linalg::Matrix;

 public:
  MatrixKalman(Vec2 initial, KalmanOptions options)
      : options_(options), x_(4, 1), p_(4, 4) {
    x_(0, 0) = initial.x;
    x_(1, 0) = initial.y;
    const double r2 = options_.measurementNoiseM * options_.measurementNoiseM;
    const double v2 =
        options_.initialVelocitySigma * options_.initialVelocitySigma;
    p_(0, 0) = p_(1, 1) = r2;
    p_(2, 2) = p_(3, 3) = v2;
  }

  void predict(double dt) {
    Matrix f = Matrix::identity(4);
    f(0, 2) = dt;
    f(1, 3) = dt;
    const double q = options_.processNoiseAccel * options_.processNoiseAccel;
    const double dt2 = dt * dt;
    const double dt3 = dt2 * dt;
    const double dt4 = dt3 * dt;
    Matrix qm(4, 4);
    qm(0, 0) = qm(1, 1) = dt4 / 4.0 * q;
    qm(0, 2) = qm(2, 0) = dt3 / 2.0 * q;
    qm(1, 3) = qm(3, 1) = dt3 / 2.0 * q;
    qm(2, 2) = qm(3, 3) = dt2 * q;
    x_ = f * x_;
    p_ = f * p_ * f.transposed() + qm;
  }

  void update(Vec2 z) {
    const Matrix h = measurementMatrix();
    const Matrix r = Matrix::identity(2) * r2();
    const Matrix innovation = innovationOf(z);
    const Matrix s = h * p_ * h.transposed() + r;
    const Matrix pht = p_ * h.transposed();
    const Matrix k =
        linalg::luSolve(s.transposed(), pht.transposed()).transposed();
    x_ = x_ + k * innovation;
    const Matrix ikh = Matrix::identity(4) - k * h;
    p_ = ikh * p_ * ikh.transposed() + k * r * k.transposed();
  }

  double mahalanobis(Vec2 z) const {
    const Matrix h = measurementMatrix();
    const Matrix s = h * p_ * h.transposed() + Matrix::identity(2) * r2();
    const Matrix innovation = innovationOf(z);
    const Matrix sol = linalg::luSolve(s, innovation);
    const Matrix d2 = innovation.transposed() * sol;
    return std::sqrt(d2(0, 0));
  }

  const Matrix& state() const { return x_; }
  const Matrix& covariance() const { return p_; }

 private:
  static Matrix measurementMatrix() {
    Matrix h(2, 4);
    h(0, 0) = 1.0;
    h(1, 1) = 1.0;
    return h;
  }
  double r2() const {
    return options_.measurementNoiseM * options_.measurementNoiseM;
  }
  Matrix innovationOf(Vec2 z) const {
    Matrix innovation(2, 1);
    innovation(0, 0) = z.x - x_(0, 0);
    innovation(1, 0) = z.y - x_(1, 0);
    return innovation;
  }

  KalmanOptions options_;
  Matrix x_;
  Matrix p_;
};

/// \p f's state and covariance laid out as the 4x4 filter's, over
/// [x, y, vx, vy], with +0 in every cross-axis entry.
std::array<double, 4> stateOf(const KalmanFilter2D& f) {
  return {f.xAxis().pos, f.yAxis().pos, f.xAxis().vel, f.yAxis().vel};
}

std::array<double, 16> covarianceOf(const KalmanFilter2D& f) {
  std::array<double, 16> p{};
  const KalmanAxis* axes[] = {&f.xAxis(), &f.yAxis()};
  for (std::size_t a = 0; a < 2; ++a) {
    const std::array<double, 4>& q = axes[a]->p;
    p[a * 4 + a] = q[0];
    p[a * 4 + a + 2] = q[1];
    p[(a + 2) * 4 + a] = q[2];
    p[(a + 2) * 4 + a + 2] = q[3];
  }
  return p;
}

// The per-axis filter at every level returns the bits of the 4x4 Matrix
// filter at sse2: state, covariance (cross-axis zeros included) and gate.
// Some steps measure the filter's own position (zero innovations), some a
// -0 coordinate, and some runs start at x = -0, so zero signs are covered.
TEST(Kalman, MatchesTheMatrixFilterBitForBitAtEveryLevel) {
  namespace simd = rfp::common::simd;
  const simd::KernelLevel saved = simd::activeKernelLevel();
  for (const simd::KernelLevel level : simd::availableKernelLevels()) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      rfp::common::Rng rng(seed);
      KalmanOptions opts;
      opts.processNoiseAccel = rng.uniform(0.2, 3.0);
      opts.measurementNoiseM = rng.uniform(0.02, 0.5);
      opts.initialVelocitySigma = rng.uniform(0.1, 3.0);
      Vec2 start{rng.uniform(-5.0, 5.0), rng.uniform(0.0, 8.0)};
      if (seed % 5 == 0) start.x = -0.0;
      KalmanFilter2D filter(start, opts);
      MatrixKalman oracle(start, opts);
      for (int step = 0; step < 200; ++step) {
        const double action = rng.uniform();
        Vec2 z{rng.uniform(-6.0, 6.0), rng.uniform(-1.0, 9.0)};
        if (step % 10 == 3) z = filter.position();
        if (step % 10 == 7) z.x = -0.0;
        const double dt = rng.uniform(0.01, 0.5);

        simd::setActiveKernelLevel(level);
        if (action < 0.4) {
          filter.predict(dt);
        } else if (action < 0.8) {
          filter.update(z);
        }
        const double gate = filter.mahalanobis(z);

        simd::setActiveKernelLevel(simd::KernelLevel::kSse2);
        if (action < 0.4) {
          oracle.predict(dt);
        } else if (action < 0.8) {
          oracle.update(z);
        }
        const double want = oracle.mahalanobis(z);

        const std::string where = std::string(simd::kernelLevelName(level)) +
                                  " seed " + std::to_string(seed) +
                                  " step " + std::to_string(step);
        ASSERT_TRUE(sameBits(gate, want)) << where;
        ASSERT_EQ(std::memcmp(stateOf(filter).data(),
                              oracle.state().data().data(),
                              4 * sizeof(double)),
                  0)
            << where;
        ASSERT_EQ(std::memcmp(covarianceOf(filter).data(),
                              oracle.covariance().data().data(),
                              16 * sizeof(double)),
                  0)
            << where;
      }
    }
  }
  simd::setActiveKernelLevel(saved);
}

TEST(Hungarian, SolvesKnownSquareProblem) {
  const linalg::Matrix cost{{4.0, 1.0, 3.0},
                            {2.0, 0.0, 5.0},
                            {3.0, 2.0, 2.0}};
  const auto assignment = solveAssignment(cost);
  ASSERT_EQ(assignment.size(), 3u);
  EXPECT_DOUBLE_EQ(assignmentCost(cost, assignment), 5.0);
  // Optimal: row0 -> col1, row1 -> col0, row2 -> col2.
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
  EXPECT_EQ(assignment[2], 2);
}

TEST(Hungarian, HandlesRectangularBothWays) {
  // More columns than rows.
  const linalg::Matrix wide{{10.0, 1.0, 10.0, 10.0}, {1.0, 10.0, 10.0, 10.0}};
  const auto a = solveAssignment(wide);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 0);

  // More rows than columns: one row stays unassigned.
  const linalg::Matrix tall{{1.0}, {2.0}, {3.0}};
  const auto b = solveAssignment(tall);
  int assigned = 0;
  for (int x : b) {
    if (x >= 0) ++assigned;
  }
  EXPECT_EQ(assigned, 1);
  EXPECT_EQ(b[0], 0);  // cheapest row wins the only column
}

TEST(Hungarian, RespectsForbiddenPairings) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const linalg::Matrix cost{{inf, 2.0}, {1.0, inf}};
  const auto assignment = solveAssignment(cost);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
}

TEST(Hungarian, AllForbiddenLeavesUnassigned) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const linalg::Matrix cost{{inf, inf}, {1.0, 2.0}};
  const auto assignment = solveAssignment(cost);
  EXPECT_EQ(assignment[0], -1);
  EXPECT_EQ(assignment[1], 0);
}

TEST(Hungarian, EmptyProblems) {
  EXPECT_TRUE(solveAssignment(linalg::Matrix(0, 3)).empty());
  const auto a = solveAssignment(linalg::Matrix(2, 0));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], -1);
}

class HungarianRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HungarianRandomTest, MatchesBruteForceOnSmallProblems) {
  const std::size_t n = GetParam();
  rfp::common::Rng rng(n * 101);
  linalg::Matrix cost(n, n);
  for (double& v : cost.data()) v = rng.uniform(0.0, 10.0);

  const auto assignment = solveAssignment(cost);
  const double got = assignmentCost(cost, assignment);

  // Brute force over all permutations.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  double best = 1e18;
  do {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) c += cost(i, perm[i]);
    best = std::min(best, c);
  } while (std::next_permutation(perm.begin(), perm.end()));

  EXPECT_NEAR(got, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HungarianRandomTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

TEST(PeakDetector, WorldBoundsGateDiscardsOutsideDetections) {
  const radar::RadarConfig cfg = testRadar();
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg);
  rfp::common::Rng rng(13);

  env::PointScatterer inside;
  inside.position = cfg.position + Vec2{0.0, 4.0};
  env::PointScatterer outside;
  outside.position = cfg.position + Vec2{-4.5, 2.0};
  const auto frame = fe.synthesize(
      std::vector<env::PointScatterer>{inside, outside}, 0.0, rng);
  const auto map = proc.process(frame);

  DetectorOptions opts;
  opts.bounds = WorldBounds{cfg.position + Vec2{-2.0, 0.0},
                            cfg.position + Vec2{2.0, 8.0}};
  const PeakDetector gated(opts);
  for (const auto& d : gated.detect(map, proc)) {
    EXPECT_TRUE(opts.bounds->contains(d.world));
  }
  // Without the gate the outside target is detected as well.
  const PeakDetector open;
  bool sawOutside = false;
  for (const auto& d : open.detect(map, proc)) {
    if (distance(d.world, outside.position) < 0.6) sawOutside = true;
  }
  EXPECT_TRUE(sawOutside);
}

TEST(PeakDetector, DynamicRangeCutSuppressesWeakPeaks) {
  const radar::RadarConfig cfg = testRadar();
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg);
  rfp::common::Rng rng(17);

  env::PointScatterer strong;
  strong.position = cfg.position + Vec2{0.0, 4.0};
  strong.amplitude = 1.0;
  env::PointScatterer weak = strong;
  weak.position = cfg.position + Vec2{2.5, 5.5};
  weak.amplitude = 0.15;  // ~16 dB weaker received power
  const auto frame = fe.synthesize(
      std::vector<env::PointScatterer>{strong, weak}, 0.0, rng);
  const auto map = proc.process(frame);

  DetectorOptions tight;
  tight.dynamicRangeDb = 10.0;
  const auto few = PeakDetector(tight).detect(map, proc);
  DetectorOptions loose;
  loose.dynamicRangeDb = 60.0;
  const auto many = PeakDetector(loose).detect(map, proc);
  EXPECT_LT(few.size(), many.size());
  for (const auto& d : few) {
    EXPECT_GT(d.power, many.front().power * 0.1 * 0.99);
  }
}

// ---------------------------------------------------------------------------
// Noise floor: the radix select must return the bits std::nth_element
// leaves at index n / 2 of a copy, on every path.

radar::RangeAngleMap mapOfCells(std::vector<double> cells) {
  radar::RangeAngleMap map;
  map.rangesM.assign(cells.size(), 0.0);
  map.anglesRad.assign(1, 0.0);
  map.power = std::move(cells);
  return map;
}

double nthElementMedian(std::vector<double> cells) {
  const std::size_t mid = cells.size() / 2;
  std::nth_element(cells.begin(), cells.begin() + mid, cells.end());
  return cells[mid];
}

void expectFloorMatchesNthElement(const std::vector<double>& cells,
                                  const std::string& what) {
  const double got = PeakDetector::noiseFloor(mapOfCells(cells));
  const double want = nthElementMedian(cells);
  EXPECT_TRUE(sameBits(got, want))
      << what << " n=" << cells.size() << " got=" << got
      << " want=" << want;
}

/// Exponential (Rayleigh-power) noise with a few strong peaks.
std::vector<double> noiseWithPeaks(std::size_t n, std::uint64_t seed) {
  rfp::common::Rng rng(seed);
  std::vector<double> cells(n);
  for (double& c : cells) c = rng.exponential(1.0);
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 5); ++i) {
    cells[(i * 7919) % n] = 1e4 * static_cast<double>(i + 1);
  }
  return cells;
}

TEST(NoiseFloor, MatchesNthElementAcrossSizesAndPatterns) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{362}, std::size_t{8191},
        std::size_t{8192}, std::size_t{41087}}) {
    const std::vector<double> noise = noiseWithPeaks(n, 100 + n);
    expectFloorMatchesNthElement(noise, "exponential noise + peaks");
    expectFloorMatchesNthElement(std::vector<double>(n, 0.25), "all equal");
    expectFloorMatchesNthElement(std::vector<double>(n, 0.0), "all zero");

    rfp::common::Rng rng(200 + n);
    std::vector<double> ties(n), twoValues(n), zeros(n), infs(n),
        mostlyInf(n);
    for (std::size_t i = 0; i < n; ++i) {
      ties[i] = static_cast<double>(static_cast<int>(rng.uniform(0.0, 3.0)));
      twoValues[i] = rng.uniform() < 0.5 ? 0.5 : 2.0;
      zeros[i] = rng.uniform() < 0.6 ? 0.0 : rng.exponential(1.0);
      infs[i] = rng.uniform() < 0.1 ? inf : rng.exponential(1.0);
      mostlyInf[i] = rng.uniform() < 0.6 ? inf : rng.exponential(1.0);
    }
    expectFloorMatchesNthElement(ties, "ties at the median");
    // A sample bracket holding both values keeps every cell.
    expectFloorMatchesNthElement(twoValues, "two values, half each");
    expectFloorMatchesNthElement(zeros, "zeros at the median");
    expectFloorMatchesNthElement(infs, "+inf cells");
    expectFloorMatchesNthElement(mostlyInf, "+inf at the median");

    std::vector<double> sorted = noise;
    std::sort(sorted.begin(), sorted.end());
    expectFloorMatchesNthElement(sorted, "sorted");
    std::vector<double> reversed(sorted.rbegin(), sorted.rend());
    expectFloorMatchesNthElement(reversed, "reversed");
    // Sixteen ascending teeth: tooth t holds sorted[t], sorted[t + 16], ...
    std::vector<double> sawtooth;
    for (std::size_t t = 0; t < 16; ++t) {
      for (std::size_t i = t; i < n; i += 16) sawtooth.push_back(sorted[i]);
    }
    expectFloorMatchesNthElement(sawtooth, "sawtooth");
  }
}

/// Sampled brackets that missed the median in one detectInto() call on
/// \p cells (as an n x 1 map); also checks that the call counted one map.
std::uint64_t bracketMisses(const std::vector<double>& cells) {
  const radar::Processor processor(testRadar());
  DetectScratch scratch;
  std::vector<Detection> out;
  PeakDetector().detectInto(mapOfCells(cells), processor, scratch, out);
  EXPECT_EQ(scratch.maps, 1u);
  return scratch.misses;
}

/// The first radix step's sample of an n-cell map: 1,024 cells at stride
/// n / 1,024 from stride / 2 (n >= 2,048), and the sample rank of the
/// median, whose bracket spans the sample ranks 48 either side of it.
struct MapSample {
  std::size_t stride;
  std::size_t target;

  explicit MapSample(std::size_t n)
      : stride(n / 1024), target(n / 2 * 1024 / n) {}
  std::size_t at(std::size_t j) const { return stride / 2 + j * stride; }
};

TEST(NoiseFloor, MatchesNthElementWhenTheSampleMissesTheMedian) {
  // The sampled cells far above the rest, then far below: the sample's
  // bracket then holds ranks far from n / 2, so the median must not rest
  // on it, and the miss path must run on either side.
  const std::size_t n = 41087;
  const MapSample sample(n);
  std::vector<double> cells = noiseWithPeaks(n, 7);
  for (std::size_t j = 0; j < 1024; ++j) {
    cells[sample.at(j)] = 1e6 + static_cast<double>(j);
  }
  expectFloorMatchesNthElement(cells, "sample above the median");
  EXPECT_GE(bracketMisses(cells), 1u) << "sample above the median";
  for (std::size_t j = 0; j < 1024; ++j) {
    cells[sample.at(j)] = 1e-9 * static_cast<double>(j + 1);
  }
  expectFloorMatchesNthElement(cells, "sample below the median");
  EXPECT_GE(bracketMisses(cells), 1u) << "sample below the median";
}

TEST(NoiseFloor, MatchesNthElementWhenTheSampleIsAllEqualAndTheMedianIsNot) {
  // An all-equal sample brackets one pattern, 0.5, which the exponential
  // noise around it holds only in the sampled cells: a miss. The same
  // sample over a map whose median is 0.5 hits.
  const std::size_t n = 41087;
  const MapSample sample(n);
  std::vector<double> cells = noiseWithPeaks(n, 17);
  for (std::size_t j = 0; j < 1024; ++j) cells[sample.at(j)] = 0.5;
  expectFloorMatchesNthElement(cells, "all-equal sample");
  EXPECT_GE(bracketMisses(cells), 1u);
  for (std::size_t i = 0; i < n; ++i) cells[i] = i % 2 == 0 ? 0.25 : 4.0;
  for (std::size_t j = 0; j < 1024; ++j) cells[sample.at(j)] = 0.5;
  cells[sample.at(0) + 1] = 0.5;
  expectFloorMatchesNthElement(cells, "all-equal sample at the median");
  EXPECT_EQ(bracketMisses(cells), 0u);
}

/// An n-cell map whose first-step sample spans 2^28 patterns above 1.0,
/// so its histogram cuts 256 slices of 2^20 patterns, with the bracket's
/// edge ranks at the first pattern of slice 100 and the last of slice 150.
/// Only the 97 sampled cells from one edge rank to the other lie inside
/// the bracket, so a hit leaves fewer than 2,048 cells for the next step,
/// which then counts them all; \p below cells, the sampled ones included,
/// lie under it and the rest over it.
std::vector<double> cellsAroundBracket(std::size_t n, std::size_t below) {
  const MapSample sample(n);
  const std::size_t rLo = sample.target - 48;
  const std::size_t rHi = sample.target + 48;
  const std::uint64_t base = std::bit_cast<std::uint64_t>(1.0);
  constexpr std::uint64_t kSlice = std::uint64_t{1} << 20;
  const std::uint64_t first = base + 100 * kSlice;
  const std::uint64_t last = base + 151 * kSlice - 1;
  std::vector<std::uint64_t> bits(n, 0);
  for (std::size_t r = 0; r < 1024; ++r) {
    std::uint64_t b = base + 200 * kSlice + r;  // above the bracket
    if (r < rLo) b = base + r;
    if (r == rLo) b = first;
    if (r > rLo && r < rHi) b = first + r;
    if (r == rHi) b = last;
    if (r == 1023) b = base + 256 * kSlice - 1;
    bits[sample.at(r)] = b;
  }
  std::size_t placed = rLo;
  for (std::uint64_t& b : bits) {
    if (b != 0) continue;
    b = placed++ < below ? base + 1000 + placed : base + 220 * kSlice + placed;
  }
  std::vector<double> cells;
  for (std::uint64_t b : bits) cells.push_back(std::bit_cast<double>(b));
  return cells;
}

TEST(NoiseFloor, MatchesNthElementWithTheMedianAtTheBracketEdge) {
  // The median at either edge of the sampled bracket hits; one rank past
  // either edge misses, and the exact counts send it down the miss path.
  const std::size_t n = 41087;
  const std::size_t k = n / 2;
  const struct {
    std::size_t below;
    bool misses;
    const char* what;
  } cases[] = {
      {k, false, "median is the bracket bottom"},
      {k + 1, true, "bracket starts one above the median"},
      {k + 1 - 97, false, "median is the bracket top"},
      {k - 97, true, "bracket ends one below the median"},
  };
  for (const auto& c : cases) {
    const std::vector<double> cells = cellsAroundBracket(n, c.below);
    expectFloorMatchesNthElement(cells, c.what);
    EXPECT_EQ(bracketMisses(cells) > 0, c.misses) << c.what;
  }
}

TEST(NoiseFloor, MatchesNthElementWithNegativeOrNanCells) {
  const std::size_t n = 41087;
  std::vector<double> negative = noiseWithPeaks(n, 11);
  negative[n / 3] = -1.0;
  expectFloorMatchesNthElement(negative, "one negative cell");

  // Signed zeros compare equal, so which one lands at the median is up
  // to nth_element; the result must still match it bit for bit.
  std::vector<double> signedZeros(n, 0.0);
  for (std::size_t i = 0; i < n; i += 3) signedZeros[i] = -0.0;
  expectFloorMatchesNthElement(signedZeros, "signed zeros");

  std::vector<double> nan = noiseWithPeaks(n, 13);
  nan[n / 5] = std::numeric_limits<double>::quiet_NaN();
  expectFloorMatchesNthElement(nan, "one NaN cell");
}

/// Cells from bit patterns, shuffled so neither selection sees them sorted.
std::vector<double> shuffledCells(const std::vector<std::uint64_t>& bits,
                                  std::uint64_t seed) {
  std::vector<double> cells;
  for (std::uint64_t b : bits) cells.push_back(std::bit_cast<double>(b));
  rfp::common::Rng rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                            static_cast<double>(i));
    std::swap(cells[i - 1], cells[std::min(j, i - 1)]);
  }
  return cells;
}

TEST(NoiseFloor, SmallMapsMatchNthElementAtEverySizeUpTo64) {
  for (std::size_t n = 1; n <= 64; ++n) {
    expectFloorMatchesNthElement(noiseWithPeaks(n, 300 + n),
                                 "exponential noise + peaks");
    rfp::common::Rng rng(400 + n);
    std::vector<double> ties(n);
    for (double& c : ties) c = std::floor(rng.uniform(0.0, 3.0));
    expectFloorMatchesNthElement(ties, "ties");
  }
  expectFloorMatchesNthElement(noiseWithPeaks(8191, 5), "8,191 cells");
}

TEST(NoiseFloor, SmallMapMedianAtEitherEndOfItsSlice) {
  // 361 patterns spanning 2^28 above 1.0, so the radix select cuts 256
  // slices of 2^20 patterns each. The median (rank 180) sits at the first
  // or the last pattern of slice 100, with 20 slice mates on its far side
  // and the rest of the 180 cells below it in slice 0.
  const std::uint64_t base = std::bit_cast<std::uint64_t>(1.0);
  constexpr std::uint64_t kSlice = std::uint64_t{1} << 20;
  constexpr std::uint64_t kMates = 20;
  for (const bool first : {true, false}) {
    std::vector<std::uint64_t> bits;
    bits.push_back(base);
    bits.push_back(base + 256 * kSlice - 1);
    for (std::uint64_t i = 0; i < (first ? 179 : 179 - kMates); ++i) {
      bits.push_back(base + i * 7 + 1);
    }
    const std::uint64_t lo = base + 100 * kSlice;
    const std::uint64_t hi = lo + kSlice - 1;
    bits.push_back(first ? lo : hi);
    for (std::uint64_t i = 0; i < kMates; ++i) {
      bits.push_back(first ? hi - i : lo + i);
    }
    for (std::uint64_t i = 0; bits.size() < 361; ++i) {
      bits.push_back(base + 200 * kSlice + i);
    }
    expectFloorMatchesNthElement(shuffledCells(bits, first ? 1 : 2),
                                 first ? "median first in its slice"
                                       : "median last in its slice");
  }
}

TEST(NoiseFloor, SmallMapEdgeDistributions) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const std::size_t n : {std::size_t{362}, std::size_t{363}}) {
    // Everything but the two extremes in one slice.
    std::vector<double> oneSlice(n);
    for (std::size_t i = 0; i < n; ++i) {
      oneSlice[i] = 1.0 + static_cast<double>(i % 17) * 0x1p-40;
    }
    oneSlice[n / 3] = 1e-300;
    oneSlice[n / 2] = 1e300;
    expectFloorMatchesNthElement(oneSlice, "all but the extremes in one slice");

    std::vector<double> twoValues(n), subnormal(n), zeroInf(n), ramp(n);
    rfp::common::Rng rng(500 + n);
    for (std::size_t i = 0; i < n; ++i) {
      twoValues[i] = rng.uniform() < 0.5 ? 0.5 : 2.0;
      subnormal[i] = rng.uniform() < 0.3
                         ? 0.0
                         : tiny * std::floor(rng.uniform(1.0, 9.0));
      zeroInf[i] = rng.uniform() < 0.5 ? 0.0 : inf;
      // Neighbouring cells correlated, as along a map row.
      ramp[i] = 1.0 + 0.5 * std::sin(0.05 * static_cast<double>(i)) +
                1e-3 * static_cast<double>(i);
    }
    expectFloorMatchesNthElement(twoValues, "two distinct values");
    expectFloorMatchesNthElement(subnormal, "zeros and subnormals");
    expectFloorMatchesNthElement(zeroInf, "+0.0 and +inf");
    expectFloorMatchesNthElement(ramp, "smooth ramp");

    std::vector<double> negative = ramp;
    negative[n / 4] = -1.0;
    expectFloorMatchesNthElement(negative, "one negative cell");
    std::vector<double> signedZeros(n, 0.0);
    for (std::size_t i = 0; i < n; i += 3) signedZeros[i] = -0.0;
    expectFloorMatchesNthElement(signedZeros, "signed zeros");
    std::vector<double> nan = ramp;
    nan[n / 5] = std::numeric_limits<double>::quiet_NaN();
    expectFloorMatchesNthElement(nan, "one NaN cell");
  }
}

TEST(NoiseFloor, LargeMapWithEveryCellButTwoInOneSlice) {
  // 300,001 cells, all but the two extremes in the median's slice: each
  // of the four sub-histogram lanes counts about 75,000 of them, more
  // than a 16-bit count holds.
  const std::size_t n = 300001;
  std::vector<double> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    cells[i] = 1.0 + static_cast<double>(i % 17) * 0x1p-40;
  }
  cells[n / 3] = 1e-300;
  cells[n / 2] = 1e300;
  expectFloorMatchesNthElement(cells, "one crowded slice");
}

TEST(NoiseFloor, EmptyMapIsZero) {
  EXPECT_EQ(PeakDetector::noiseFloor(radar::RangeAngleMap{}), 0.0);
}

/// detectInto's contract spelled out the slow way: threshold = factor x
/// the noise floor's definition (the value nth_element leaves at index
/// n / 2 of a copy), candidates = cells above it that no 8-neighbour
/// exceeds, collected by nested loops in row-major order (clipped at the
/// map edge) and put strongest-first by the same std::sort call the
/// detector makes. That sort is not stable, so equal-power candidates
/// come out in an order that depends on the row-major input order.
std::vector<Detection> nestedLoopDetections(const radar::RangeAngleMap& map,
                                            double thresholdFactor) {
  const double threshold = nthElementMedian(map.power) * thresholdFactor;
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  const auto nR = static_cast<long>(map.numRanges());
  const auto nA = static_cast<long>(map.numAngles());
  for (long r = 0; r < nR; ++r) {
    for (long a = 0; a < nA; ++a) {
      const double v = map.at(r, a);
      if (!(v > threshold)) continue;
      bool isMax = true;
      for (long dr = -1; dr <= 1; ++dr) {
        for (long da = -1; da <= 1; ++da) {
          const long rr = r + dr;
          const long aa = a + da;
          if ((dr == 0 && da == 0) || rr < 0 || rr >= nR || aa < 0 ||
              aa >= nA) {
            continue;
          }
          if (map.at(rr, aa) > v) isMax = false;
        }
      }
      if (isMax) candidates.emplace_back(r, a);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& x, const auto& y) {
              return map.at(x.first, x.second) > map.at(y.first, y.second);
            });
  std::vector<Detection> out;
  for (const auto& [r, a] : candidates) {
    Detection d;
    d.rangeM = map.rangesM[r];
    d.angleRad = map.anglesRad[a];
    d.power = map.at(r, a);
    out.push_back(d);
  }
  return out;
}

/// A detector that returns every candidate: no NMS, no dynamic-range
/// cut, no cap, no world gate.
PeakDetector everyCandidateDetector(DetectorOptions opts) {
  opts.minSeparationM = 0.0;
  opts.minSeparationRad = 0.0;
  opts.dynamicRangeDb = 0.0;
  opts.maxDetections = std::numeric_limits<std::size_t>::max();
  opts.bounds.reset();
  return PeakDetector(opts);
}

/// detectInto's detections equal nestedLoopDetections(), in order and
/// bit for bit; returns how many there are.
std::size_t expectDetectIntoMatchesNestedLoops(
    const PeakDetector& detector, const radar::RangeAngleMap& map,
    const radar::Processor& processor, DetectScratch& scratch,
    const std::string& what) {
  std::vector<Detection> got;
  detector.detectInto(map, processor, scratch, got);
  const std::vector<Detection> want =
      nestedLoopDetections(map, detector.options().thresholdFactor);
  EXPECT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_TRUE(sameBits(got[i].power, want[i].power) &&
                sameBits(got[i].rangeM, want[i].rangeM) &&
                sameBits(got[i].angleRad, want[i].angleRad))
        << what << " candidate " << i << ": got (" << got[i].rangeM << ", "
        << got[i].angleRad << ") want (" << want[i].rangeM << ", "
        << want[i].angleRad << ")";
  }
  return got.size();
}

/// Runs \p frames + 1 frames of \p scenario with a ghost (the first primes
/// the background subtraction) and hands each range-angle map, with the
/// radar that made it and the frame's index, to \p check.
template <class Check>
void forEachMap(const core::Scenario& scenario, int frames, Check check) {
  rfp::common::Rng rng(2024);
  trajectory::HumanWalkModel model;
  const trajectory::Trace trace = trajectory::centered(model.sample(rng));
  core::RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  system.addGhostAuto(trace, 2.0 * dt, scenario.plan, rng);
  env::Environment environment(scenario.plan);
  core::EavesdropperRadar radar(scenario.sensing);

  std::vector<env::PointScatterer> scene;
  radar::Frame frame;
  radar::RangeAngleMap map;
  radar::ProcessorScratch processorScratch;
  for (int f = 0; f <= frames; ++f) {
    const double t = f * dt;
    core::combineScatterersInto(scene, environment, t, rng, scenario.snapshot,
                                system.injectAt(t));
    radar.senseRawInto(frame, scene, t, rng);
    const radar::Frame* diff = radar.backgroundDiff(frame);
    if (diff == nullptr) continue;
    radar.processor().processInto(*diff, map, processorScratch);
    check(map, radar.processor(), f);
  }
}

/// Runs 41 frames of \p scenario and checks every map's noise floor and
/// detections against the slow references. Returns the candidate count.
std::size_t checkScenarioFrames(const core::Scenario& scenario) {
  const PeakDetector detector =
      everyCandidateDetector(scenario.sensing.detector);
  DetectScratch detectScratch;
  std::size_t frames = 0;
  std::size_t candidates = 0;
  forEachMap(scenario, 40, [&](const radar::RangeAngleMap& map,
                               const radar::Processor& processor, int f) {
    std::vector<double> sorted = map.power;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(
        sameBits(PeakDetector::noiseFloor(map), sorted[sorted.size() / 2]))
        << "frame " << f;
    candidates += expectDetectIntoMatchesNestedLoops(
        detector, map, processor, detectScratch,
        "frame " + std::to_string(f));
    ++frames;
  });
  EXPECT_EQ(frames, 40u);
  return candidates;
}

TEST(PeakDetector, DetectIntoMatchesBruteForceOnOfficeFrames) {
  EXPECT_GT(checkScenarioFrames(core::makeOfficeScenario()), 40u);
}

TEST(PeakDetector, NoSampledBracketMissesOnOfficeFrames) {
  // 200 office maps of 41,087 cells: each first step and the step on its
  // band sample their cells, and every bracket holds the median.
  const core::Scenario scenario = core::makeOfficeScenario();
  const PeakDetector detector(scenario.sensing.detector);
  DetectScratch scratch;
  std::vector<Detection> out;
  forEachMap(scenario, 200,
             [&](const radar::RangeAngleMap& map,
                 const radar::Processor& processor, int) {
               ASSERT_EQ(map.power.size(), 41087u);
               detector.detectInto(map, processor, scratch, out);
             });
  EXPECT_EQ(scratch.maps, 200u);
  EXPECT_EQ(scratch.misses, 0u);
}

TEST(PeakDetector, DetectIntoMatchesBruteForceOnToyFrames) {
  // The fleet benchmark's cost-reduced radar: 8 samples x 3 antennas, a
  // 2-row map, so every row is a border row.
  std::istringstream text(
      "room.name = fleet-home\nradar.sample_rate = 16000\n"
      "radar.antennas = 3\npanel.count = 4\n");
  const core::Scenario scenario = core::loadScenario(text);
  EXPECT_GT(checkScenarioFrames(scenario), 0u);
}

/// A map of exponential noise with distinct range and angle axes, so a
/// detection's (range, angle) names its cell.
radar::RangeAngleMap noiseMap(std::size_t nR, std::size_t nA,
                              std::uint64_t seed) {
  radar::RangeAngleMap map;
  for (std::size_t r = 0; r < nR; ++r) map.rangesM.push_back(1.0 + 0.1 * r);
  for (std::size_t a = 0; a < nA; ++a) {
    map.anglesRad.push_back(0.01 * static_cast<double>(a + 1));
  }
  rfp::common::Rng rng(seed);
  map.power.resize(nR * nA);
  for (double& c : map.power) c = rng.exponential(1.0);
  return map;
}

TEST(PeakDetector, DetectIntoMatchesBruteForceOnSyntheticMaps) {
  const radar::Processor processor(testRadar());
  const PeakDetector detector = everyCandidateDetector(DetectorOptions{});
  DetectScratch scratch;
  const auto check = [&](const radar::RangeAngleMap& map,
                         const std::string& what) {
    return expectDetectIntoMatchesNestedLoops(detector, map, processor,
                                              scratch, what);
  };

  // Equal peaks on every border row and column, the four corners among
  // them, and plateaus of equal neighbours inside and along an edge.
  radar::RangeAngleMap borders = noiseMap(6, 10, 1);
  for (const auto& [r, a] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {0, 4}, {0, 9}, {5, 0}, {5, 5}, {5, 9}, {2, 0}, {3, 9}}) {
    borders.at(r, a) = 100.0;
  }
  EXPECT_EQ(check(borders, "border peaks"), 8u);
  radar::RangeAngleMap plateaus = noiseMap(6, 10, 2);
  for (std::size_t r = 2; r <= 3; ++r) {
    for (std::size_t a = 3; a <= 5; ++a) plateaus.at(r, a) = 50.0;
  }
  for (std::size_t a = 6; a <= 9; ++a) plateaus.at(0, a) = 50.0;
  plateaus.at(5, 1) = 50.0;
  EXPECT_EQ(check(plateaus, "plateaus"), 11u);

  // Every cell in [1, 2): no row holds a cell above 8 x the median.
  radar::RangeAngleMap flat = noiseMap(6, 10, 3);
  for (double& c : flat.power) c = 1.0 + c / (1.0 + c);
  EXPECT_EQ(check(flat, "no row above the threshold"), 0u);

  // A NaN or a negative cell sends the floor down the copy path; the
  // sweep must still visit every row.
  for (const double odd : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    radar::RangeAngleMap map = borders;
    map.at(3, 4) = odd;
    map.at(2, 6) = 70.0;
    const std::string what =
        std::isnan(odd) ? "one NaN cell" : "one negative cell";
    EXPECT_EQ(check(map, what), 9u);
  }

  // Narrow and odd widths around the eight-lane split, with ties.
  for (const std::size_t nA : {1, 2, 3, 8, 9, 10}) {
    radar::RangeAngleMap map = noiseMap(40, nA, 10 + nA);
    for (std::size_t r = 0; r < 40; r += 13) map.at(r, (r / 13) % nA) = 80.0;
    map.at(20, nA - 1) = 90.0;
    map.at(30, nA / 2) = 90.0;
    EXPECT_GE(check(map, "numAngles " + std::to_string(nA)), 6u);
  }
}

TEST(PeakDetector, DetectIntoRejectsAMapWhosePowerDoesNotMatchItsAxes) {
  const radar::Processor processor(testRadar());
  radar::RangeAngleMap map = noiseMap(4, 5, 4);
  map.power.pop_back();
  DetectScratch scratch;
  std::vector<Detection> out;
  EXPECT_THROW(PeakDetector().detectInto(map, processor, scratch, out),
               std::invalid_argument);
}

Detection makeDetection(Vec2 world, double t, double power = 1.0) {
  Detection d;
  d.world = world;
  d.timestampS = t;
  d.power = power;
  return d;
}

TEST(Tracker, FollowsTwoParallelTargets) {
  MultiTargetTracker tracker;
  const double dt = 0.1;
  for (int i = 0; i < 30; ++i) {
    const double t = i * dt;
    std::vector<Detection> dets = {
        makeDetection({t * 1.0, 2.0}, t),
        makeDetection({t * 1.0, 5.0}, t),
    };
    tracker.update(dets, t);
  }
  const auto confirmed = tracker.confirmedTracks();
  ASSERT_EQ(confirmed.size(), 2u);
  const auto trajs = tracker.trajectories();
  ASSERT_EQ(trajs.size(), 2u);
  for (const auto& traj : trajs) EXPECT_GT(traj.size(), 25u);
}

TEST(Tracker, DropsStaleTracksAndKeepsHistory) {
  TrackerOptions opts;
  opts.maxMisses = 3;
  MultiTargetTracker tracker(opts);
  double t = 0.0;
  for (int i = 0; i < 10; ++i, t += 0.1) {
    tracker.update({makeDetection({1.0 + 0.05 * i, 1.0}, t)}, t);
  }
  EXPECT_EQ(tracker.confirmedTracks().size(), 1u);
  // Target disappears; track must retire into finishedTracks.
  for (int i = 0; i < 6; ++i, t += 0.1) tracker.update({}, t);
  EXPECT_TRUE(tracker.confirmedTracks().empty());
  ASSERT_EQ(tracker.finishedTracks().size(), 1u);
  EXPECT_GT(tracker.finishedTracks().front().history.size(), 8u);
}

TEST(Tracker, GatingPreventsTeleportAssociation) {
  MultiTargetTracker tracker;
  tracker.update({makeDetection({0.0, 0.0}, 0.0)}, 0.0);
  tracker.update({makeDetection({0.05, 0.0}, 0.1)}, 0.1);
  // A detection 6 m away must spawn a new track, not extend the old one.
  tracker.update({makeDetection({6.0, 0.0}, 0.2)}, 0.2);
  EXPECT_EQ(tracker.tracks().size(), 2u);
}

TEST(Tracker, TentativeTracksAreNotConfirmed) {
  MultiTargetTracker tracker;
  tracker.update({makeDetection({1.0, 1.0}, 0.0)}, 0.0);
  EXPECT_TRUE(tracker.confirmedTracks().empty());
  EXPECT_EQ(tracker.tracks().size(), 1u);
}

}  // namespace
}  // namespace rfp::tracking
