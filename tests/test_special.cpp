#include "common/special.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace rfp::common {
namespace {

TEST(Special, GammaPPlusGammaQIsOne) {
  for (double a : {0.5, 1.0, 2.5, 7.0}) {
    for (double x : {0.1, 1.0, 3.0, 10.0}) {
      EXPECT_NEAR(gammaP(a, x) + gammaQ(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(Special, GammaPUnitShapeIsExponentialCdf) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.0, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(gammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(Special, GammaPIsMonotoneInX) {
  double prev = 0.0;
  for (double x = 0.0; x <= 8.0; x += 0.25) {
    const double p = gammaP(2.0, x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Special, GammaPRejectsBadArguments) {
  EXPECT_THROW(gammaP(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(gammaP(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(gammaQ(-2.0, 1.0), std::invalid_argument);
}

TEST(Special, ChiSquareSurvivalKnownValues) {
  // Classic critical values: chi2 = 3.841, dof 1 -> p = 0.05.
  EXPECT_NEAR(chiSquareSurvival(3.841, 1), 0.05, 2e-4);
  // chi2 = 6.635, dof 1 -> p = 0.01.
  EXPECT_NEAR(chiSquareSurvival(6.635, 1), 0.01, 1e-4);
  // chi2 = 5.991, dof 2 -> p = 0.05.
  EXPECT_NEAR(chiSquareSurvival(5.991, 2), 0.05, 2e-4);
  // At zero the survival probability is 1.
  EXPECT_DOUBLE_EQ(chiSquareSurvival(0.0, 3), 1.0);
}

TEST(Special, ChiSquareSurvivalRejectsBadDof) {
  EXPECT_THROW(chiSquareSurvival(1.0, 0), std::invalid_argument);
}

TEST(Special, LogBinomialCoefficientMatchesSmallCases) {
  EXPECT_NEAR(std::exp(logBinomialCoefficient(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(logBinomialCoefficient(10, 5)), 252.0, 1e-6);
  EXPECT_EQ(logBinomialCoefficient(4, 5),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(logBinomialCoefficient(4, -1),
            -std::numeric_limits<double>::infinity());
}

// ctest names each instance from the raw bytes of its parameter, so the
// struct must have no padding: padding bytes are never initialised and would
// give the same case a different name on every run.
struct BinomialCase {
  std::int64_t n;
  double p;
};
static_assert(sizeof(BinomialCase) == sizeof(std::int64_t) + sizeof(double));

class BinomialPmfTest : public ::testing::TestWithParam<BinomialCase> {};

TEST_P(BinomialPmfTest, SumsToOne) {
  const int n = static_cast<int>(GetParam().n);
  const double p = GetParam().p;
  double total = 0.0;
  for (int k = 0; k <= n; ++k) total += binomialPmf(n, p, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST_P(BinomialPmfTest, MeanMatchesNp) {
  const int n = static_cast<int>(GetParam().n);
  const double p = GetParam().p;
  double mean = 0.0;
  for (int k = 0; k <= n; ++k) mean += k * binomialPmf(n, p, k);
  EXPECT_NEAR(mean, n * p, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialPmfTest,
    ::testing::Values(BinomialCase{1, 0.5}, BinomialCase{4, 0.2},
                      BinomialCase{8, 0.5}, BinomialCase{12, 0.9},
                      BinomialCase{20, 0.01}, BinomialCase{5, 0.0},
                      BinomialCase{5, 1.0}));

TEST(BinomialPmf, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(binomialPmf(5, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomialPmf(5, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomialPmf(5, 1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(binomialPmf(5, 1.0, 4), 0.0);
}

TEST(BinomialPmf, OutOfRangeKIsZero) {
  EXPECT_DOUBLE_EQ(binomialPmf(5, 0.3, -1), 0.0);
  EXPECT_DOUBLE_EQ(binomialPmf(5, 0.3, 6), 0.0);
}

TEST(BinomialPmf, RejectsBadParameters) {
  EXPECT_THROW(binomialPmf(-1, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(binomialPmf(5, -0.1, 0), std::invalid_argument);
  EXPECT_THROW(binomialPmf(5, 1.1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace rfp::common
