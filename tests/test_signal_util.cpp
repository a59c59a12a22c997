#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpuid.h"
#include "common/rng.h"
#include "signal/filters.h"
#include "signal/noise.h"
#include "signal/window.h"

namespace rfp::signal {
namespace {

using rfp::common::Vec2;

TEST(Window, CoefficientsWithinUnitRange) {
  for (auto type : {WindowType::kHann, WindowType::kHamming,
                    WindowType::kBlackman, WindowType::kRectangular}) {
    const auto w = makeWindow(type, 64);
    ASSERT_EQ(w.size(), 64u);
    for (double v : w) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(Window, HannIsSymmetricAndZeroEnded) {
  const auto w = makeWindow(WindowType::kHann, 33);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST(Window, CoherentGains) {
  EXPECT_DOUBLE_EQ(coherentGain(makeWindow(WindowType::kRectangular, 50)),
                   1.0);
  // Hann coherent gain approaches 0.5 for long windows.
  EXPECT_NEAR(coherentGain(makeWindow(WindowType::kHann, 4096)), 0.5, 1e-3);
}

TEST(Window, ApplyWindowChecksLength) {
  std::vector<std::complex<double>> samples(8, {1.0, 0.0});
  const auto w = makeWindow(WindowType::kHamming, 8);
  applyWindow(samples, w);
  EXPECT_NEAR(samples[0].real(), 0.08, 1e-12);
  std::vector<std::complex<double>> wrong(7);
  EXPECT_THROW(applyWindow(wrong, w), std::invalid_argument);
  EXPECT_THROW(makeWindow(WindowType::kHann, 0), std::invalid_argument);
}

TEST(Filters, MovingAverageConstantsInvariant) {
  const std::vector<double> xs(20, 3.5);
  for (std::size_t h : {0u, 1u, 3u, 10u}) {
    const auto y = movingAverage(xs, h);
    for (double v : y) EXPECT_DOUBLE_EQ(v, 3.5);
  }
}

TEST(Filters, MovingAverageSmoothsStep) {
  std::vector<double> xs(10, 0.0);
  for (std::size_t i = 5; i < 10; ++i) xs[i] = 1.0;
  const auto y = movingAverage(xs, 1);
  EXPECT_DOUBLE_EQ(y[4], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(y[5], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[9], 1.0);
}

TEST(Filters, MovingMedianRejectsImpulse) {
  std::vector<double> xs(11, 1.0);
  xs[5] = 100.0;  // impulsive outlier
  const auto y = movingMedian(xs, 2);
  EXPECT_DOUBLE_EQ(y[5], 1.0);
}

TEST(Filters, PathSmoothingPreservesEndpointsApproximately) {
  std::vector<Vec2> path;
  for (int i = 0; i < 20; ++i) {
    path.push_back({static_cast<double>(i), static_cast<double>(i) * 0.5});
  }
  const auto smooth = smoothPath(path, 2);
  ASSERT_EQ(smooth.size(), path.size());
  // A linear path is invariant under centered averaging away from edges.
  for (std::size_t i = 3; i < 17; ++i) {
    EXPECT_NEAR(smooth[i].x, path[i].x, 1e-12);
    EXPECT_NEAR(smooth[i].y, path[i].y, 1e-12);
  }
  const auto med = medianFilterPath(path, 2);
  for (std::size_t i = 3; i < 17; ++i) {
    EXPECT_NEAR(med[i].x, path[i].x, 1e-12);
  }
}

TEST(Filters, ExponentialSmoothValidation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const auto y = exponentialSmooth(xs, 1.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);  // alpha=1 is identity
  EXPECT_THROW(exponentialSmooth(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(exponentialSmooth(xs, 1.5), std::invalid_argument);
}

TEST(Filters, InterpolateGapsLinear) {
  const double nan = std::nan("");
  const std::vector<double> xs = {nan, 1.0, nan, nan, 4.0, nan};
  const auto y = interpolateGaps(xs);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  EXPECT_DOUBLE_EQ(y[3], 3.0);
  EXPECT_DOUBLE_EQ(y[5], 4.0);
  EXPECT_THROW(interpolateGaps(std::vector<double>{nan, nan}),
               std::invalid_argument);
}

TEST(Noise, PowerMatchesRequest) {
  rfp::common::Rng rng(11);
  const auto samples = complexAwgn(200000, 0.25, rng);
  EXPECT_NEAR(averagePower(samples), 0.25, 0.005);
}

TEST(Noise, ZeroPowerIsNoOp) {
  rfp::common::Rng rng(1);
  std::vector<std::complex<double>> samples(16, {1.0, 2.0});
  addAwgn(samples, 0.0, rng);
  EXPECT_DOUBLE_EQ(samples[7].real(), 1.0);
  EXPECT_THROW(addAwgn(samples, -1.0, rng), std::invalid_argument);
  // The counter-based overload checks before it dispatches to a kernel.
  addAwgn(samples, 0.0, /*seed=*/5, /*counter=*/6, /*stream=*/7);
  for (const auto& x : samples) EXPECT_EQ(x, std::complex<double>(1.0, 2.0));
  EXPECT_THROW(addAwgn(samples, -1.0, 5, 6, 7), std::invalid_argument);
}

// Counter-based overload, at every kernel level this host runs: 2^20
// samples as 256 counters x 8 streams x 512, at total power 0.36.
TEST(Noise, CounterBasedMomentsAtEveryLevel) {
  namespace simd = rfp::common::simd;
  const simd::KernelLevel prev = simd::activeKernelLevel();
  constexpr double kPower = 0.36;
  constexpr std::size_t kBurst = 512;
  for (simd::KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    double sumI = 0, sumQ = 0, sumII = 0, sumQQ = 0, sumIQ = 0;
    std::vector<std::complex<double>> burst(kBurst);
    for (std::uint64_t counter = 0; counter < 256; ++counter) {
      for (std::uint64_t stream = 0; stream < 8; ++stream) {
        std::fill(burst.begin(), burst.end(), std::complex<double>{});
        addAwgn(burst, kPower, /*seed=*/2024, counter, stream);
        for (const auto& x : burst) {
          sumI += x.real();
          sumQ += x.imag();
          sumII += x.real() * x.real();
          sumQQ += x.imag() * x.imag();
          sumIQ += x.real() * x.imag();
        }
      }
    }
    const double n = 256.0 * 8.0 * kBurst;
    const double meanI = sumI / n, meanQ = sumQ / n;
    const double varI = sumII / n - meanI * meanI;
    const double varQ = sumQQ / n - meanQ * meanQ;
    const double corr = (sumIQ / n - meanI * meanQ) / std::sqrt(varI * varQ);
    const double stdErr = std::sqrt(kPower / 2.0 / n);
    const char* name = simd::kernelLevelName(level);
    EXPECT_LT(std::abs(meanI), 5.0 * stdErr) << name;
    EXPECT_LT(std::abs(meanQ), 5.0 * stdErr) << name;
    EXPECT_NEAR(varI, kPower / 2.0, 0.01 * kPower / 2.0) << name;
    EXPECT_NEAR(varQ, kPower / 2.0, 0.01 * kPower / 2.0) << name;
    EXPECT_LT(std::abs(corr), 0.01) << name;
  }
  simd::setActiveKernelLevel(prev);
}

TEST(Noise, SnrDb) {
  EXPECT_DOUBLE_EQ(snrDb(1.0, 0.1), 10.0);
  EXPECT_DOUBLE_EQ(snrDb(1.0, 1.0), 0.0);
  EXPECT_THROW(snrDb(0.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace rfp::signal
