/// Determinism-contract tests for the runtime-dispatched SIMD kernel
/// family (DESIGN.md Sec. 13): dispatch resolution and override, memcmp
/// bit-identity of every available level against its scalar reference
/// for all seven kernel families (GEMM, tone setup, tone synthesis, FFT
/// butterflies, Eq. 2 beamforming, counter-based noise, map scans), the
/// tone setup's sin/cos against libm, bit-identity across the two FMA
/// widths, thread invariance per level, and the documented cross-regime
/// tolerance -- asserted loudly so a regime drift fails CI instead of
/// rotting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpuid.h"
#include "common/fma_complex.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "common/constants.h"
#include "common/vec2.h"
#include "env/scatterer.h"
#include "radar/config.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "radar/simd_kernels.h"
#include "service/service_ledger.h"
#include "signal/fft.h"
#include "signal/fft_kernels.h"
#include "signal/noise_kernels.h"
#include "signal/window.h"
#include "tracking/map_scan_kernels.h"

namespace rfp {
namespace {

namespace simd = rfp::common::simd;
using simd::CpuFeatures;
using simd::KernelLevel;
using Complex = std::complex<double>;

/// Documented cross-regime bounds (DESIGN.md Sec. 13): individual
/// kernel outputs of the sse2 regime and the FMA regime agree to
/// |a - b| <= kKernelTol * (|a| + |b| + 1); end-to-end range-angle
/// power maps (window -> FFT -> beamform -> |.|^2 chains) to
/// kEndToEndTol in the same metric.
constexpr double kKernelTol = 1e-12;
constexpr double kEndToEndTol = 1e-9;

bool withinTol(double a, double b, double tol) {
  return std::abs(a - b) <= tol * (std::abs(a) + std::abs(b) + 1.0);
}

bool withinTol(Complex a, Complex b, double tol) {
  return withinTol(a.real(), b.real(), tol) &&
         withinTol(a.imag(), b.imag(), tol);
}

/// Restores the active kernel level and the global thread count on scope
/// exit so a failing assertion cannot leak a forced level into later
/// tests.
class LevelGuard {
 public:
  LevelGuard() : prev_(simd::activeKernelLevel()) {}
  ~LevelGuard() {
    simd::setActiveKernelLevel(prev_);
    common::ThreadPool::setGlobalThreads(0);
  }

 private:
  KernelLevel prev_;
};

/// The FMA-regime levels available on this host (possibly empty).
std::vector<KernelLevel> fmaLevels() {
  std::vector<KernelLevel> out;
  for (KernelLevel level : simd::availableKernelLevels()) {
    if (level != KernelLevel::kSse2) out.push_back(level);
  }
  return out;
}

std::vector<Complex> randomComplex(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Complex> v(n);
  for (Complex& x : v) {
    x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  return v;
}

void lcgFill(linalg::Matrix& m, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      m(r, c) = static_cast<double>(s >> 11) * 0x1p-53 - 0.5;
    }
  }
}

bool bitIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool bitIdentical(const std::vector<Complex>& a,
                  const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0);
}

// ---------------------------------------------------------------------------
// Dispatch resolution: pure logic over synthetic feature sets.

CpuFeatures fullBox() {
  CpuFeatures f;
  f.sse2 = f.avx = f.fma = f.avx2 = f.avx512f = true;
  return f;
}

CpuFeatures avx2Box() {
  CpuFeatures f = fullBox();
  f.avx512f = false;
  return f;
}

CpuFeatures sse2Box() {
  CpuFeatures f;
  f.sse2 = true;
  return f;
}

TEST(KernelDispatch, ResolvesRequestStrings) {
  const CpuFeatures full = fullBox();
  struct Case {
    const char* request;
    KernelLevel expect;
  };
  const Case cases[] = {
      {"sse2", KernelLevel::kSse2},      {"scalar", KernelLevel::kSse2},
      {"avx2", KernelLevel::kAvx2Fma},   {"avx2_fma", KernelLevel::kAvx2Fma},
      {"avx512", KernelLevel::kAvx512},  {"auto", KernelLevel::kAvx512},
      {nullptr, KernelLevel::kAvx512},   {"", KernelLevel::kAvx512},
  };
  for (const Case& c : cases) {
    const simd::KernelResolution r = simd::resolveKernelLevel(c.request, full);
    EXPECT_EQ(r.level, c.expect)
        << "request=" << (c.request ? c.request : "(null)");
    EXPECT_FALSE(r.requestedUnsupported);
    EXPECT_FALSE(r.requestUnrecognized);
  }
}

TEST(KernelDispatch, UnsupportedRequestFallsBackToWidestSupported) {
  const simd::KernelResolution narrow =
      simd::resolveKernelLevel("avx512", avx2Box());
  EXPECT_EQ(narrow.level, KernelLevel::kAvx2Fma);
  EXPECT_TRUE(narrow.requestedUnsupported);
  EXPECT_FALSE(narrow.requestUnrecognized);

  const simd::KernelResolution scalar =
      simd::resolveKernelLevel("avx2", sse2Box());
  EXPECT_EQ(scalar.level, KernelLevel::kSse2);
  EXPECT_TRUE(scalar.requestedUnsupported);
}

TEST(KernelDispatch, UnrecognizedRequestResolvesToAuto) {
  const simd::KernelResolution r =
      simd::resolveKernelLevel("turbo9000", avx2Box());
  EXPECT_EQ(r.level, KernelLevel::kAvx2Fma);
  EXPECT_TRUE(r.requestUnrecognized);
  EXPECT_FALSE(r.requestedUnsupported);
}

TEST(KernelDispatch, MaxSupportedLevelRequiresBothAvx2AndFma) {
  CpuFeatures noFma = avx2Box();
  noFma.fma = false;
  EXPECT_EQ(simd::maxSupportedLevel(noFma), KernelLevel::kSse2);
  CpuFeatures noAvx2 = avx2Box();
  noAvx2.avx2 = false;
  EXPECT_EQ(simd::maxSupportedLevel(noAvx2), KernelLevel::kSse2);
  EXPECT_EQ(simd::maxSupportedLevel(avx2Box()), KernelLevel::kAvx2Fma);
  EXPECT_EQ(simd::maxSupportedLevel(fullBox()), KernelLevel::kAvx512);
}

TEST(KernelDispatch, LevelNamesAreCanonical) {
  EXPECT_STREQ(simd::kernelLevelName(KernelLevel::kSse2), "sse2");
  EXPECT_STREQ(simd::kernelLevelName(KernelLevel::kAvx2Fma), "avx2_fma");
  EXPECT_STREQ(simd::kernelLevelName(KernelLevel::kAvx512), "avx512");
}

TEST(KernelDispatch, AvailableLevelsFormLadderFromSse2) {
  const auto levels = simd::availableKernelLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), KernelLevel::kSse2);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
}

TEST(KernelDispatch, OverrideRoundTripsAndRejectsUnsupported) {
  LevelGuard guard;
  const auto levels = simd::availableKernelLevels();
  for (KernelLevel level : levels) {
    simd::setActiveKernelLevel(level);
    EXPECT_EQ(simd::activeKernelLevel(), level);
    EXPECT_EQ(linalg::activeGemmLevelInfo().level, level);
  }
  const KernelLevel widest = levels.back();
  if (widest != KernelLevel::kAvx512) {
    EXPECT_THROW(simd::setActiveKernelLevel(KernelLevel::kAvx512),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// GEMM: every available level memcmp-matches its scalar reference at
// 1/2/4 threads across shapes that straddle the micro-tile.

TEST(KernelGemm, EveryLevelBitIdenticalToItsReference) {
  LevelGuard guard;
  struct Shape {
    std::size_t m, k, n;
  };
  const Shape shapes[] = {{4, 4, 4},  {8, 8, 8}, {33, 17, 29}, {1, 7, 5},
                          {5, 7, 1},  {6, 1, 6}, {64, 3, 2},   {2, 3, 64},
                          {9, 9, 9}};
  const double alphas[] = {1.0, -0.5};
  const double betas[] = {0.0, 0.7};
  std::uint64_t seed = 1;
  for (KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    for (const Shape& s : shapes) {
      for (int transA = 0; transA < 2; ++transA) {
        for (int transB = 0; transB < 2; ++transB) {
          for (double alpha : alphas) {
            for (double beta : betas) {
              linalg::Matrix a(transA ? s.k : s.m, transA ? s.m : s.k);
              linalg::Matrix b(transB ? s.n : s.k, transB ? s.k : s.n);
              linalg::Matrix cInit(s.m, s.n);
              lcgFill(a, seed++);
              lcgFill(b, seed++);
              lcgFill(cInit, seed++);
              linalg::Matrix c = cInit;
              linalg::Matrix ref = cInit;
              linalg::gemm(c, a, b, transA != 0, transB != 0, alpha, beta);
              linalg::referenceGemmForLevel(level, ref, a, b, transA != 0,
                                            transB != 0, alpha, beta);
              ASSERT_TRUE(bitIdentical(c, ref))
                  << "level=" << simd::kernelLevelName(level) << " m=" << s.m
                  << " k=" << s.k << " n=" << s.n << " tA=" << transA
                  << " tB=" << transB << " alpha=" << alpha
                  << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

TEST(KernelGemm, EveryLevelThreadInvariantAndReferenceExact) {
  LevelGuard guard;
  linalg::Matrix a(64, 96);
  linalg::Matrix b(96, 80);
  lcgFill(a, 31);
  lcgFill(b, 32);
  for (KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    linalg::Matrix ref;
    linalg::referenceGemmForLevel(level, ref, a, b);
    for (std::size_t threads : {1ul, 2ul, 4ul}) {
      common::ThreadPool::setGlobalThreads(threads);
      linalg::Matrix c;
      linalg::gemm(c, a, b);
      EXPECT_TRUE(bitIdentical(c, ref))
          << "level=" << simd::kernelLevelName(level)
          << " threads=" << threads;
    }
    common::ThreadPool::setGlobalThreads(0);
  }
}

TEST(KernelGemm, FmaWidthsBitIdenticalToEachOther) {
  const auto fma = fmaLevels();
  if (fma.size() < 2) {
    GTEST_SKIP() << "host supports " << fma.size()
                 << " FMA level(s); need avx2_fma and avx512";
  }
  LevelGuard guard;
  linalg::Matrix a(37, 53);
  linalg::Matrix b(53, 41);
  lcgFill(a, 71);
  lcgFill(b, 72);
  simd::setActiveKernelLevel(fma[0]);
  linalg::Matrix cNarrow;
  linalg::gemm(cNarrow, a, b);
  simd::setActiveKernelLevel(fma[1]);
  linalg::Matrix cWide;
  linalg::gemm(cWide, a, b);
  EXPECT_TRUE(bitIdentical(cNarrow, cWide))
      << "avx2_fma and avx512 GEMM diverged: the two FMA widths must share "
         "one numeric regime (DESIGN.md Sec. 13)";
}

TEST(KernelGemm, CrossRegimeDifferenceWithinDocumentedBound) {
  const auto fma = fmaLevels();
  if (fma.empty()) GTEST_SKIP() << "host has no FMA-regime level";
  LevelGuard guard;
  linalg::Matrix a(48, 64);
  linalg::Matrix b(64, 32);
  lcgFill(a, 81);
  lcgFill(b, 82);
  simd::setActiveKernelLevel(KernelLevel::kSse2);
  linalg::Matrix cScalar;
  linalg::gemm(cScalar, a, b);
  simd::setActiveKernelLevel(fma.back());
  linalg::Matrix cFma;
  linalg::gemm(cFma, a, b);
  for (std::size_t r = 0; r < cScalar.rows(); ++r) {
    for (std::size_t c = 0; c < cScalar.cols(); ++c) {
      ASSERT_TRUE(withinTol(cScalar(r, c), cFma(r, c), kKernelTol))
          << "GEMM cross-regime drift exceeds the documented bound "
          << kKernelTol << " (DESIGN.md Sec. 13) at (" << r << "," << c
          << "): sse2=" << cScalar(r, c) << " fma=" << cFma(r, c);
    }
  }
}

// ---------------------------------------------------------------------------
// FFT butterflies: drive fft() at each level against a local oracle
// built from the scalar stage passes, plus cross-regime tolerance.

/// \p a in bit-reversed order, by the incremental reversed counter:
/// independent of the plan's tables.
std::vector<Complex> bitReversed(std::vector<Complex> a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  return a;
}

std::vector<Complex> fftOracle(std::vector<Complex> a,
                               signal::detail::StagePassFn pass,
                               bool forward) {
  const std::size_t n = a.size();
  a = bitReversed(std::move(a));
  if (n < 2) return a;
  const auto plan = signal::fftPlanFor(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    pass(a.data(), n, len, plan->twiddles.data() + (len / 2 - 1), forward);
  }
  return a;
}

signal::detail::StagePassFn referencePass(KernelLevel level) {
  return level == KernelLevel::kSse2 ? &signal::detail::stagePassScalar
                                     : &signal::detail::stagePassFmaRef;
}

/// Powers of two from 2 to \p max: every early-stage special case (a lone
/// butterfly, one permuted vector, several) and the general stages.
std::vector<std::size_t> fftSizes(std::size_t max) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= max; n <<= 1) sizes.push_back(n);
  return sizes;
}

/// Two inputs per size: random values, and zeros of random sign. On the
/// zeros every butterfly output is a zero whose sign depends on the sign
/// of each twiddle component, the len 2 stage's exact (1, 0) included, so
/// a lost conjugation or a misplaced lane shows.
std::vector<std::vector<Complex>> fftInputs(std::size_t n,
                                            std::uint64_t seed) {
  std::vector<Complex> zeros = randomComplex(n, seed + 1);
  for (Complex& z : zeros) {
    z = {std::copysign(0.0, z.real()), std::copysign(0.0, z.imag())};
  }
  return {randomComplex(n, seed), zeros};
}

TEST(KernelFft, EveryLevelBitIdenticalToItsReferencePass) {
  LevelGuard guard;
  for (std::size_t n : fftSizes(4096)) {
    for (const std::vector<Complex>& input : fftInputs(n, 1000 + n)) {
      // The plan's swap list, which the transforms apply, puts the input
      // in the oracle's bit-reversed order.
      std::vector<Complex> swapped = input;
      for (const auto& [i, j] : signal::fftPlanFor(n)->swaps) {
        std::swap(swapped[i], swapped[j]);
      }
      EXPECT_TRUE(bitIdentical(swapped, bitReversed(input))) << "n=" << n;
      for (KernelLevel level : simd::availableKernelLevels()) {
        simd::setActiveKernelLevel(level);
        const std::vector<Complex> out = signal::fft(input, n);
        const std::vector<Complex> ref =
            fftOracle(input, referencePass(level), true);
        EXPECT_TRUE(bitIdentical(out, ref))
            << "level=" << simd::kernelLevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(KernelFft, InverseEveryLevelBitIdenticalToItsReferencePass) {
  LevelGuard guard;
  for (std::size_t n : fftSizes(1024)) {
    for (const std::vector<Complex>& input : fftInputs(n, 1500 + n)) {
      for (KernelLevel level : simd::availableKernelLevels()) {
        simd::setActiveKernelLevel(level);
        std::vector<Complex> out = input;
        signal::ifftInPlace(out);
        std::vector<Complex> ref =
            fftOracle(input, referencePass(level), false);
        const double inv = 1.0 / static_cast<double>(n);
        for (Complex& x : ref) x *= inv;
        EXPECT_TRUE(bitIdentical(out, ref))
            << "level=" << simd::kernelLevelName(level) << " n=" << n;
      }
    }
  }
}

// fftWindowedInto against the chain it replaces: copy, applyWindow, zero
// fill and fftInPlace, at the same level. Sample counts below, at and
// above n/2 (a user-set fftSize); a Hann window, whose w[0] = 0 turns a
// negative sample into -0; NaN and infinite samples.
TEST(KernelFft, WindowedEntryEqualsCopyWindowFillTransform) {
  LevelGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n : fftSizes(4096)) {
    const auto plan = signal::fftPlanFor(n);
    std::vector<std::size_t> counts = {1, n / 2, n};
    if (n / 2 > 1) counts.push_back(n / 2 - 1);
    if (n / 2 + 1 < n) counts.push_back(n / 2 + 1);
    for (std::size_t m : counts) {
      const std::vector<double> window =
          signal::makeWindow(signal::WindowType::kHann, m);
      for (int special = 0; special < 2; ++special) {
        std::vector<Complex> samples = randomComplex(m, 40 * n + m);
        samples[0] = {-0.75, -0.5};
        if (special != 0) {
          samples[m / 2] = {nan, 0.25};
          samples[m - 1] = {-inf, inf};
          if (m > 2) samples[1] = {0.5, -inf};
        }
        for (KernelLevel level : simd::availableKernelLevels()) {
          simd::setActiveKernelLevel(level);
          std::vector<Complex> ref = samples;
          signal::applyWindow(ref, window);
          ref.resize(n, Complex{});
          signal::fftInPlace(ref);
          std::vector<Complex> out(n, Complex(nan, nan));
          signal::fftWindowedInto(*plan, samples, window, out);
          EXPECT_TRUE(bitIdentical(out, ref))
              << "level=" << simd::kernelLevelName(level) << " n=" << n
              << " samples=" << m << " special=" << special;
        }
      }
    }
  }
}

TEST(KernelFft, WindowedEntryRejectsMismatchedLengths) {
  const auto plan = signal::fftPlanFor(8);
  const std::vector<Complex> samples(5);
  const std::vector<double> window(5, 1.0);
  std::vector<Complex> out(8);
  std::vector<Complex> shortOut(4);
  const std::vector<Complex> tooMany(9);
  const std::vector<double> wideWindow(9, 1.0);
  EXPECT_THROW(signal::fftWindowedInto(*plan, samples, wideWindow, out),
               std::invalid_argument);
  EXPECT_THROW(signal::fftWindowedInto(*plan, samples, window, shortOut),
               std::invalid_argument);
  EXPECT_THROW(signal::fftWindowedInto(*plan, tooMany, wideWindow, out),
               std::invalid_argument);
}

TEST(KernelFft, InverseRoundTripsAtEveryLevel) {
  LevelGuard guard;
  const std::size_t n = 512;
  const std::vector<Complex> input = randomComplex(n, 2024);
  for (KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    std::vector<Complex> data = input;
    signal::fftInPlace(data);
    signal::ifftInPlace(data);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(withinTol(data[i], input[i], 1e-10))
          << "level=" << simd::kernelLevelName(level) << " i=" << i;
    }
  }
}

TEST(KernelFft, CrossRegimeDifferenceWithinDocumentedBound) {
  if (fmaLevels().empty()) GTEST_SKIP() << "host has no FMA-regime level";
  const std::size_t n = 1024;
  const std::vector<Complex> input = randomComplex(n, 555);
  const std::vector<Complex> scalar =
      fftOracle(input, &signal::detail::stagePassScalar, true);
  const std::vector<Complex> fmaRef =
      fftOracle(input, &signal::detail::stagePassFmaRef, true);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(withinTol(scalar[i], fmaRef[i], kKernelTol))
        << "FFT cross-regime drift exceeds the documented bound "
        << kKernelTol << " (DESIGN.md Sec. 13) at bin " << i;
  }
}

// ---------------------------------------------------------------------------
// Tone synthesis: toneChain plus each level's chains kernel memcmp-matches
// the level's single-tone recurrence, and the chains kernel matches the
// level's single-chain loop run chain after chain.

using radar::detail::ToneChain;

/// Bit equality, except that two NaNs may differ in their sign bit. The
/// tone chain kernels step with vfmaddsub (as the FFT passes multiply),
/// which passes a NaN subtrahend through with its sign, while the std::fma
/// references negate it first; every other bit of every cell, and whether
/// a cell is NaN at all, is the same.
bool sameBitsUpToNaNSign(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = std::bit_cast<std::uint64_t>(a[i]);
    const auto y = std::bit_cast<std::uint64_t>(b[i]);
    const bool nans = std::isnan(a[i]) && std::isnan(b[i]);
    if (nans ? (x | kSign) != (y | kSign) : x != y) return false;
  }
  return true;
}

bool sameBitsUpToNaNSign(const std::vector<Complex>& a,
                         const std::vector<Complex>& b) {
  const auto parts = [](const std::vector<Complex>& v) {
    std::vector<double> out;
    for (const Complex& c : v) {
      out.push_back(c.real());
      out.push_back(c.imag());
    }
    return out;
  };
  return sameBitsUpToNaNSign(parts(a), parts(b));
}


/// The single-tone recurrence of each regime, written out: at sse2
/// dst[i] += phasor, phasor *= rot; at the FMA levels four lanes started
/// by plain std::complex products (this TU has no -mfma) and stepped by
/// fmaComplexMul(p, rot^4), the last n % 4 samples taking the leading
/// lanes.
void toneOracle(KernelLevel level, Complex* dst, std::size_t n,
                Complex phasor, Complex rot) {
  if (level == KernelLevel::kSse2) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] += phasor;
      phasor *= rot;
    }
    return;
  }
  const Complex rot2 = rot * rot;
  const Complex rot4 = rot2 * rot2;
  Complex p[4] = {phasor, phasor * rot, phasor * rot2, (phasor * rot) * rot2};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int j = 0; j < 4; ++j) dst[i + j] += p[j];
    for (int j = 0; j < 4; ++j) p[j] = simd::fmaComplexMul(p[j], rot4);
  }
  for (std::size_t j = 0; i + j < n; ++j) dst[i + j] += p[j];
}

/// The level's single-chain loop: the reference the chains kernel is
/// memcmp-compared against, one chain per call, in list order.
radar::detail::ToneAccumChainsFn singleChainLoop(KernelLevel level) {
  return level == KernelLevel::kSse2 ? &radar::detail::toneAccumChainsScalar
                                     : &radar::detail::toneAccumChainsFmaRef;
}

void chainsInListOrder(KernelLevel level, Complex* dst, std::size_t n,
                       const std::vector<ToneChain>& chains) {
  for (const ToneChain& chain : chains) {
    singleChainLoop(level)(dst, n, &chain, 1);
  }
}

TEST(KernelTone, EveryLevelBitIdenticalToItsReference) {
  const Complex phasor = std::polar(0.37, 1.1);
  const Complex rot = std::polar(1.0, 0.0123);
  for (std::size_t n : {0ul, 1ul, 2ul, 3ul, 4ul, 5ul, 7ul, 8ul, 16ul, 17ul,
                        33ul, 257ul, 500ul}) {
    const std::vector<Complex> init = randomComplex(n, 3000 + n);
    for (KernelLevel level : simd::availableKernelLevels()) {
      const ToneChain chain = radar::detail::toneChain(level, phasor, rot);
      std::vector<Complex> out = init;
      std::vector<Complex> ref = init;
      radar::detail::toneAccumChainsForLevel(level)(out.data(), n, &chain, 1);
      toneOracle(level, ref.data(), n, phasor, rot);
      EXPECT_TRUE(bitIdentical(out, ref))
          << "level=" << simd::kernelLevelName(level) << " n=" << n;
    }
  }
}

// The FMA regime's chain prologue (toneChain) must round the same way as
// the plain std::complex products. One fixed pair cannot show that: GCC's
// vectorized complex multiply agrees with the plain product on many
// inputs. 1,000 random (phasor, rot) pairs, each over sizes inside the
// first four-lane step, one step with and without a tail, and the paper
// radar's 500.
TEST(KernelTone, RandomPairsEveryLevelBitIdenticalToItsReference) {
  common::Rng rng(4242);
  const double pi = std::acos(-1.0);
  for (int pair = 0; pair < 1000; ++pair) {
    const Complex phasor(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    const Complex rot = std::polar(1.0, rng.uniform(-pi, pi));
    for (std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 8ul, 500ul}) {
      const std::vector<Complex> init = randomComplex(n, 9000 + n);
      for (KernelLevel level : simd::availableKernelLevels()) {
        const ToneChain chain = radar::detail::toneChain(level, phasor, rot);
        std::vector<Complex> out = init;
        std::vector<Complex> ref = init;
        radar::detail::toneAccumChainsForLevel(level)(out.data(), n, &chain,
                                                      1);
        toneOracle(level, ref.data(), n, phasor, rot);
        ASSERT_TRUE(bitIdentical(out, ref))
            << "level=" << simd::kernelLevelName(level) << " pair=" << pair
            << " n=" << n << " phasor=" << phasor << " rot=" << rot;
      }
    }
  }
}

/// \p count chains of \p level with random unit-circle steps.
std::vector<ToneChain> randomChains(KernelLevel level, std::size_t count,
                                    common::Rng& rng) {
  const double pi = std::acos(-1.0);
  std::vector<ToneChain> chains(count);
  for (ToneChain& chain : chains) {
    const Complex phasor(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    chain = radar::detail::toneChain(level, phasor,
                                     std::polar(1.0, rng.uniform(-pi, pi)));
  }
  return chains;
}

// Counts 0-20 cover K - 1, K, K + 1 and 2K + 1 at every level (K = 3 at
// avx2_fma, 8 at avx512); the sizes cover every masked tail, one and
// several four-sample blocks, and the paper radar's 500. Four random
// chain sets per (count, n): 1,092 in all. Eight signaling-NaN sentinels
// past each row prove the masked tail touches nothing beyond n: a stray
// load-add-store would quiet them.
TEST(KernelToneChains, EveryLevelMatchesItsSingleChainLoopInListOrder) {
  constexpr std::size_t kSentinels = 8;
  const double snan = std::numeric_limits<double>::signaling_NaN();
  common::Rng rng(7117);
  for (std::size_t count = 0; count <= 20; ++count) {
    for (std::size_t n : {1ul, 2ul, 3ul, 4ul, 5ul, 6ul, 7ul, 8ul, 9ul, 15ul,
                          16ul, 17ul, 500ul}) {
      for (int set = 0; set < 4; ++set) {
        std::vector<Complex> init =
            randomComplex(n, 17 * count + 1000 * n + set);
        init.resize(n + kSentinels, Complex(snan, snan));
        for (KernelLevel level : simd::availableKernelLevels()) {
          const std::vector<ToneChain> chains =
              randomChains(level, count, rng);
          std::vector<Complex> out = init;
          std::vector<Complex> ref = init;
          radar::detail::toneAccumChainsForLevel(level)(out.data(), n,
                                                        chains.data(), count);
          chainsInListOrder(level, ref.data(), n, chains);
          ASSERT_TRUE(bitIdentical(out, ref))
              << "level=" << simd::kernelLevelName(level)
              << " count=" << count << " n=" << n << " set=" << set;
        }
      }
    }
  }
}

// NaN and infinite chain values pass through every chain as in the
// single-chain loop (the vector kernels up to a NaN's sign, as in the
// beamforming rows), and a row of zeros of random sign gets the loop's
// signed zeros, from chains of random values and from chains of -0.
TEST(KernelToneChains, NonFiniteChainsAndSignedZeroRowsMatchTheLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Rng rng(8118);
  for (std::size_t count : {1ul, 3ul, 4ul, 8ul, 9ul, 17ul}) {
    for (std::size_t n : {1ul, 3ul, 5ul, 8ul, 17ul}) {
      std::vector<Complex> zeros = randomComplex(n, 50 * count + n);
      for (Complex& z : zeros) {
        z = {std::copysign(0.0, z.real()), std::copysign(0.0, z.imag())};
      }
      for (KernelLevel level : simd::availableKernelLevels()) {
        std::vector<ToneChain> special = randomChains(level, count, rng);
        special[0].p[0] = {nan, 0.5};
        special[count / 2].p[1] = {inf, -inf};
        special[count - 1].step = {-inf, 0.25};
        std::vector<ToneChain> negativeZeros(count);
        for (ToneChain& chain : negativeZeros) {
          for (Complex& p : chain.p) p = {-0.0, -0.0};
          chain.step = {1.0, 0.0};
        }
        for (const std::vector<ToneChain>* set : {&special, &negativeZeros}) {
          std::vector<Complex> out = zeros;
          std::vector<Complex> ref = zeros;
          radar::detail::toneAccumChainsForLevel(level)(out.data(), n,
                                                        set->data(), count);
          chainsInListOrder(level, ref.data(), n, *set);
          ASSERT_TRUE(sameBitsUpToNaNSign(out, ref))
              << "level=" << simd::kernelLevelName(level)
              << " count=" << count << " n=" << n
              << " negative zeros=" << (set == &negativeZeros);
        }
      }
    }
  }
}

TEST(KernelTone, CrossRegimeDifferenceWithinDocumentedBound) {
  const Complex phasor = std::polar(0.8, -0.4);
  const Complex rot = std::polar(1.0, 0.031);
  const std::size_t n = 500;
  std::vector<Complex> scalar(n), fmaRef(n);
  const ToneChain sse2 =
      radar::detail::toneChain(KernelLevel::kSse2, phasor, rot);
  const ToneChain fma =
      radar::detail::toneChain(KernelLevel::kAvx2Fma, phasor, rot);
  radar::detail::toneAccumChainsScalar(scalar.data(), n, &sse2, 1);
  radar::detail::toneAccumChainsFmaRef(fmaRef.data(), n, &fma, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(withinTol(scalar[i], fmaRef[i], kKernelTol))
        << "tone cross-regime drift exceeds the documented bound "
        << kKernelTol << " (DESIGN.md Sec. 13) at sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Tone setup: each level's kernel against its reference, bit for bit --
// sse2 against the seed expressions written out below, the FMA levels
// against toneSetupFmaRef -- and the FMA regime's sin/cos against libm.

using radar::detail::ToneGeometry;
using radar::detail::ToneInputs;

/// What Frontend hands the setup kernels for \p cfg.
ToneGeometry toneGeometryOf(const radar::RadarConfig& cfg) {
  return radar::Frontend(cfg).toneGeometry();
}

/// The seed's inline per-(scatterer, antenna) setup, which the sse2
/// kernel must reproduce bit for bit.
void seedToneSetup(const radar::RadarConfig& cfg, const ToneInputs& m,
                   ToneChain* chains, std::size_t stride) {
  const double dt = 1.0 / cfg.chirp.sampleRateHz;
  const double sl = cfg.chirp.slope();
  const double f0 = cfg.chirp.startHz;
  const double twoPi = 2.0 * common::pi();
  for (std::size_t i = 0; i < m.count; ++i) {
    const common::Vec2 position{m.x[i], m.y[i]};
    for (int k = 0; k < cfg.numAntennas; ++k) {
      const common::Vec2 rxPos = cfg.antennaPosition(k);
      const double dRx = (position - rxPos).norm() + m.radialOffsetM[i];
      const double tau = (m.dTx[i] + dRx) / common::kSpeedOfLight;
      const double beatHz = sl * tau + m.beatFreqOffsetHz[i];
      const double basePhase = twoPi * f0 * tau + m.phaseOffsetRad[i];
      chains[static_cast<std::size_t>(k) * stride + i] =
          radar::detail::toneChain(KernelLevel::kSse2,
                                   std::polar(m.amplitude[i], basePhase),
                                   std::polar(1.0, twoPi * beatHz * dt));
    }
  }
}

/// The paper radar (6-7 GHz, 500 samples), the fleet's toy radar (8
/// samples) and a 77-81 GHz mmWave radar, each with \p antennas elements.
std::vector<radar::RadarConfig> toneSetupBands(int antennas) {
  radar::RadarConfig paper;
  paper.position = {5.0, 0.05};
  paper.numAntennas = antennas;
  radar::RadarConfig toy = paper;
  toy.chirp.sampleRateHz = 16000;
  radar::RadarConfig mmWave = paper;
  mmWave.chirp.startHz = 77e9;
  mmWave.chirp.stopHz = 81e9;
  mmWave.chirp.durationS = 50e-6;
  mmWave.chirp.sampleRateHz = 10e6;
  return {paper, toy, mmWave};
}

/// \p count tones within \p reachM of a radar at (5, 0.05) in x and y,
/// with negative radial offsets among them and amplitudes up to
/// \p maxAmplitude.
ToneInputs randomTones(std::size_t count, common::Rng& rng,
                       double reachM = 25.0, double maxAmplitude = 2.0) {
  ToneInputs m;
  m.reset(count);
  for (std::size_t i = 0; i < count; ++i) {
    env::PointScatterer s;
    s.position = {5.0 + rng.uniform(-reachM, reachM),
                  rng.uniform(0.3, reachM)};
    s.radialOffsetM = rng.uniform(-0.4, 3.0);
    s.beatFreqOffsetHz = rng.uniform(-4e4, 4e4);
    s.phaseOffsetRad = rng.uniform(-40.0, 40.0);
    const double dTx = (s.position - common::Vec2{5.0, 0.05}).norm() +
                       s.radialOffsetM;
    m.push(s, rng.uniform(1e-3, maxAmplitude), dTx);
  }
  return m;
}

/// A [antenna][column] chain array of signaling NaNs: a kernel that
/// writes outside its columns leaves a difference behind.
std::vector<ToneChain> sentinelChains(std::size_t antennas,
                                      std::size_t stride) {
  const double snan = std::numeric_limits<double>::signaling_NaN();
  ToneChain sentinel;
  for (Complex& p : sentinel.p) p = {snan, snan};
  sentinel.step = {snan, snan};
  return std::vector<ToneChain>(antennas * stride, sentinel);
}

std::vector<double> chainDoubles(const std::vector<ToneChain>& chains) {
  std::vector<double> out(chains.size() * 10);
  std::memcpy(out.data(), chains.data(), out.size() * sizeof(double));
  return out;
}

/// The level's setup and its reference over \p m, from equal sentinel
/// arrays of rows \p stride columns wide: the columns past the last tone
/// of every row, the last row's included, must keep their sentinels.
struct SetupRun {
  std::vector<ToneChain> out, ref;
};

SetupRun runToneSetup(KernelLevel level, const radar::RadarConfig& cfg,
                      const ToneInputs& m, std::size_t stride) {
  const std::size_t antennas = static_cast<std::size_t>(cfg.numAntennas);
  SetupRun run{sentinelChains(antennas, stride),
               sentinelChains(antennas, stride)};
  radar::detail::toneSetupForLevel(level)(toneGeometryOf(cfg), m,
                                          run.out.data(), stride);
  if (level == KernelLevel::kSse2) {
    seedToneSetup(cfg, m, run.ref.data(), stride);
  } else {
    radar::detail::toneSetupFmaRef(toneGeometryOf(cfg), m, run.ref.data(),
                                   stride);
  }
  return run;
}

// 0-17 tones cover an empty call, every four-lane tail and up to four
// full vectors; 1-9 antennas; the paper, toy and mmWave bands, whose
// phases reach about 10^5 rad. Each row has three sentinel columns past
// its last tone.
TEST(KernelToneSetup, EveryLevelBitIdenticalToItsReference) {
  common::Rng rng(2601);
  for (int antennas = 1; antennas <= 9; ++antennas) {
    for (const radar::RadarConfig& cfg : toneSetupBands(antennas)) {
      for (std::size_t count = 0; count <= 17; ++count) {
        const std::size_t stride = count + 3;
        const ToneInputs m = randomTones(count, rng);
        for (KernelLevel level : simd::availableKernelLevels()) {
          const SetupRun run = runToneSetup(level, cfg, m, stride);
          ASSERT_EQ(std::memcmp(run.out.data(), run.ref.data(),
                                run.out.size() * sizeof(ToneChain)),
                    0)
              << "level=" << simd::kernelLevelName(level)
              << " antennas=" << antennas << " count=" << count
              << " startHz=" << cfg.chirp.startHz;
        }
      }
    }
  }
}

// NaN and infinite positions, offsets and amplitudes give the
// reference's chains at every level (up to a NaN's sign, as in the
// chains kernel), including where the plain prologue products give NaN
// and std::complex's would recover an infinity.
TEST(KernelToneSetup, NonFiniteInputsMatchTheReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Rng rng(2602);
  for (const radar::RadarConfig& cfg : toneSetupBands(3)) {
    for (std::size_t count : {1ul, 4ul, 5ul, 9ul, 17ul}) {
      const std::size_t stride = count + 2;
      for (int field = 0; field < 7; ++field) {
        ToneInputs m = randomTones(count, rng);
        const std::size_t i = count / 2;
        switch (field) {
          case 0: m.x[i] = inf; break;
          case 1: m.y[i] = nan; break;
          case 2: m.radialOffsetM[i] = -inf; break;
          case 3: m.amplitude[i] = inf; break;
          case 4: m.beatFreqOffsetHz[i] = nan; break;
          case 5: m.phaseOffsetRad[i] = inf; break;
          case 6: m.dTx[i] = nan; break;
        }
        for (KernelLevel level : simd::availableKernelLevels()) {
          const SetupRun run = runToneSetup(level, cfg, m, stride);
          ASSERT_TRUE(sameBitsUpToNaNSign(chainDoubles(run.out),
                                          chainDoubles(run.ref)))
              << "level=" << simd::kernelLevelName(level)
              << " count=" << count << " field=" << field;
        }
      }
    }
  }
}

/// Distance in units in the last place between two finite doubles of
/// any sign.
std::uint64_t ulpDistance(double a, double b) {
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

// The accuracy contract of simd_kernels.h: 2^16 random arguments per
// range, up to |x| < 2^17 (above the mmWave band's phases), each within
// 4 ulp of libm's sin and cos; NaN and infinities give NaN.
TEST(KernelToneSetup, SinCosWithinFourUlpOfLibm) {
  common::Rng rng(2605);
  const double pi = common::pi();
  for (const double range : {pi / 4, pi, 1e3, 4e4, 0x1p17}) {
    std::uint64_t worst = 0;
    for (int n = 0; n < (1 << 16); ++n) {
      const double x = rng.uniform(-range, range);
      const auto v = radar::detail::toneSinCosFmaRef(x);
      worst = std::max({worst, ulpDistance(v.sin, std::sin(x)),
                        ulpDistance(v.cos, std::cos(x))});
      ASSERT_LE(worst, 4u) << "x=" << x << " sin=" << v.sin
                           << " libm sin=" << std::sin(x) << " cos=" << v.cos
                           << " libm cos=" << std::cos(x);
    }
  }
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    const auto v = radar::detail::toneSinCosFmaRef(x);
    EXPECT_TRUE(std::isnan(v.sin) && std::isnan(v.cos)) << "x=" << x;
  }
}

// sse2 and the FMA regime build chains whose tone rows (each band's own
// sample count) agree within the documented kernel bound, for scatterers
// within 5 m with radial offsets up to 0.5 m and amplitudes after path
// loss up to 1, on the paper and toy bands: phases below 2^11 rad. A
// phase is held to one ulp, and hypot and the FMA square root may put a
// path length one ulp apart, so the regimes' phases differ by about
// |phase| * 2^-52 rad: at 30 m on the paper band that passes 1e-12, and
// on the mmWave band every scene does (DESIGN.md Sec. 13).
TEST(KernelToneSetup, CrossRegimeWithinDocumentedBound) {
  common::Rng rng(2606);
  for (const radar::RadarConfig& cfg : toneSetupBands(7)) {
    if (cfg.chirp.startHz > 10e9) continue;
    const std::size_t n = cfg.chirp.samplesPerChirp();
    ToneInputs m = randomTones(17, rng, /*reachM=*/5.0,
                               /*maxAmplitude=*/1.0);
    for (double& r : m.radialOffsetM) r = std::min(r, 0.5);
    std::vector<ToneChain> sse2(7 * 17), fma(7 * 17);
    const ToneGeometry g = toneGeometryOf(cfg);
    radar::detail::toneSetupScalar(g, m, sse2.data(), 17);
    radar::detail::toneSetupFmaRef(g, m, fma.data(), 17);
    for (std::size_t c = 0; c < sse2.size(); ++c) {
      std::vector<Complex> a(n), b(n);
      radar::detail::toneAccumChainsScalar(a.data(), n, &sse2[c], 1);
      radar::detail::toneAccumChainsFmaRef(b.data(), n, &fma[c], 1);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(withinTol(a[j], b[j], kKernelTol))
            << "tone setup cross-regime drift exceeds the documented bound "
            << kKernelTol << " (DESIGN.md Sec. 13) at chain " << c
            << " sample " << j << ": sse2=" << a[j] << " fma=" << b[j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row- and angle-batched Eq. 2 sweeps: every level's kernel and reference
// against a power oracle that keeps +0-seeded sums (the seed-exact scalar
// dot at sse2; at the FMA levels the pair chain of simd_kernels.h with
// each of its four sums starting at +0 and taking every antenna by
// std::fma), over 1-9 rows (full four-row groups and every remainder), 1-9
// antennas and angle counts below, at and around the vector widths and
// the paper's 181; its NaN cells are kPairNaN at the FMA levels. NaN
// sentinels past the last row prove no store lands beyond it. Every
// function is compared byte for byte. The FMA levels read only the first
// ceil(nAngles / 2) angles, so on a matrix that is not
// conjugate-symmetric their mirrored cells are still the oracle's, not
// beamforming by the stored angle.

std::vector<double> seededPowerOracle(KernelLevel level,
                                      const std::vector<Complex>& s,
                                      std::size_t rows,
                                      const std::vector<Complex>& w,
                                      std::size_t nAnt, std::size_t nAngles) {
  std::vector<double> power(rows * nAngles);
  const std::size_t h = (nAngles + 1) / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const Complex* sr = s.data() + r * nAnt;
    double* row = power.data() + r * nAngles;
    if (level == KernelLevel::kSse2) {
      for (std::size_t a = 0; a < nAngles; ++a) {
        const Complex d =
            radar::detail::beamformDotScalar(sr, w.data() + a * nAnt, nAnt);
        row[a] = d.real() * d.real() + d.imag() * d.imag();
      }
      continue;
    }
    for (std::size_t a = 0; a < h; ++a) {
      double sumA = 0.0, sumB = 0.0, sumC = 0.0, sumD = 0.0;
      for (std::size_t k = 0; k < nAnt; ++k) {
        const Complex wk = w[a * nAnt + k];
        sumA = std::fma(sr[k].real(), wk.real(), sumA);
        sumB = std::fma(sr[k].imag(), wk.imag(), sumB);
        sumC = std::fma(sr[k].real(), wk.imag(), sumC);
        sumD = std::fma(sr[k].imag(), wk.real(), sumD);
      }
      const double re = sumA - sumB, im = sumC + sumD;
      row[a] = re * re + im * im;
      // For odd nAngles the middle angle keeps its direct value.
      if (nAngles - 1 - a == a) continue;
      const double mre = sumA + sumB, mim = sumD - sumC;
      row[nAngles - 1 - a] = mre * mre + mim * mim;
    }
    for (std::size_t a = 0; a < nAngles; ++a) {
      if (std::isnan(row[a])) row[a] = radar::detail::kPairNaN;
    }
  }
  return power;
}

/// A steering-like matrix: antenna 0 is exactly (1, 0) at every angle, as
/// in the processor's, so infinite spectra meet exact zeros, and angle
/// nAngles - 1 - a is exactly the conjugate of angle a, the FMA levels'
/// precondition, so the sse2 and FMA oracles beamform the same matrix.
std::vector<Complex> steeringLike(std::size_t nAngles, std::size_t nAnt,
                                  std::uint64_t seed) {
  std::vector<Complex> w = randomComplex(nAngles * nAnt, seed);
  for (std::size_t a = 0; a < nAngles; ++a) w[a * nAnt] = {1.0, 0.0};
  for (std::size_t a = 0; a < nAngles / 2; ++a) {
    for (std::size_t k = 0; k < nAnt; ++k) {
      w[(nAngles - 1 - a) * nAnt + k] = std::conj(w[a * nAnt + k]);
    }
  }
  return w;
}

/// The [antenna][angle] planes of the first ceil(nAngles / 2) angles of
/// \p w, laid out as SteeringMatrix holds them.
void steeringPlanes(const std::vector<Complex>& w, std::size_t nAnt,
                    std::size_t nAngles, std::vector<double>& reT,
                    std::vector<double>& imT) {
  const std::size_t h = (nAngles + 1) / 2;
  reT.assign(nAnt * h, 0.0);
  imT.assign(nAnt * h, 0.0);
  for (std::size_t a = 0; a < h; ++a) {
    for (std::size_t k = 0; k < nAnt; ++k) {
      reT[k * h + a] = w[a * nAnt + k].real();
      imT[k * h + a] = w[a * nAnt + k].imag();
    }
  }
}

/// Runs every function of \p level's rows family (the kernel and the
/// reference) and compares each, sentinels included, with the oracle bit
/// for bit.
void expectRowsMatchOracle(const std::vector<Complex>& s, std::size_t rows,
                           const std::vector<Complex>& w, std::size_t nAnt,
                           std::size_t nAngles, const std::string& what) {
  constexpr std::size_t kSentinels = 8;
  const double sentinel = std::nan("0x5eed");
  std::vector<double> reT, imT;
  steeringPlanes(w, nAnt, nAngles, reT, imT);
  for (KernelLevel level : simd::availableKernelLevels()) {
    std::vector<double> want =
        seededPowerOracle(level, s, rows, w, nAnt, nAngles);
    want.resize(want.size() + kSentinels, sentinel);
    const radar::detail::BeamformRowsFn fns[] = {
        radar::detail::beamformRowsForLevel(level),
        level == KernelLevel::kSse2 ? &radar::detail::beamformRowsScalar
                                    : &radar::detail::beamformRowsFmaRef};
    for (const radar::detail::BeamformRowsFn fn : fns) {
      std::vector<double> out(want.size(), sentinel);
      fn(s.data(), rows, w.data(), reT.data(), imT.data(), nAnt, nAngles,
         out.data());
      EXPECT_EQ(std::memcmp(out.data(), want.data(),
                            out.size() * sizeof(double)),
                0)
          << what << " level=" << simd::kernelLevelName(level)
          << (fn == fns[0] ? " kernel" : " reference") << " rows=" << rows
          << " nAnt=" << nAnt << " nAngles=" << nAngles;
    }
  }
}

std::vector<std::size_t> beamformAngleCounts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
  counts.push_back(181);
  return counts;
}

TEST(KernelBeamformRows, EveryLevelMatchesTheSeededOracle) {
  for (std::size_t rows = 1; rows <= 9; ++rows) {
    for (std::size_t nAnt = 1; nAnt <= 9; ++nAnt) {
      for (std::size_t nAngles : beamformAngleCounts()) {
        const std::vector<Complex> s =
            randomComplex(rows * nAnt, 6000 + 16 * rows + nAnt);
        const std::vector<Complex> w =
            randomComplex(nAngles * nAnt, 7000 + 31 * nAngles + nAnt);
        expectRowsMatchOracle(s, rows, w, nAnt, nAngles, "random");
      }
    }
  }
}

// Signed zeros, where the dropped +0 seeds could show (a product of -0
// sums to -0 without the seed, +0 with it), and non-finite spectra, whose
// NaN and infinities must pass through the chains unchanged, on a
// conjugate-symmetric matrix. The last row is finite, so a mirror that
// did not take the conjugate would show there. Six rows: one four-row
// group and a remainder of two.
TEST(KernelBeamformRows, SignedZeroAndNonFiniteSpectraMatchTheSeededOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t kRows = 6;
  for (std::size_t nAnt = 1; nAnt <= 9; ++nAnt) {
    for (std::size_t nAngles : beamformAngleCounts()) {
      const std::vector<Complex> w =
          steeringLike(nAngles, nAnt, 7500 + 31 * nAngles + nAnt);
      std::vector<Complex> s = randomComplex(kRows * nAnt, 6500 + nAnt);
      for (std::size_t k = 0; k < nAnt; ++k) s[k] = {-0.0, 0.0};
      s[1 * nAnt + nAnt / 2] = {nan, 0.5};
      s[2 * nAnt] = {inf, -0.25};
      s[2 * nAnt + nAnt - 1] = {0.5, -inf};
      s[3 * nAnt + nAnt - 1] = {-inf, nan};
      s[4 * nAnt] = {inf, inf};
      expectRowsMatchOracle(s, kRows, w, nAnt, nAngles, "special");

      std::vector<Complex> zeros(kRows * nAnt, Complex(-0.0, 0.0));
      expectRowsMatchOracle(zeros, kRows, w, nAnt, nAngles, "all (-0, +0)");
    }
  }
}

/// The processor angle counts the pair chain's edge cases need: the odd
/// middle angle, a partial mirrored block at either width, and fewer
/// direct angles than one vector holds.
const std::size_t kProcessorAngleCounts[] = {3, 4, 5, 8, 9, 16, 17, 180, 181};

/// Bound on |w_k(N - 1 - a) - conj(w_k(a))| for the processor's steering
/// entries: theta_a and pi - theta_a, cos, the phase product and sincos
/// each round once, so the two phases differ by a few ulps of a phase
/// below 2 pi k d / lambda. 1e-13 holds for the arrays up to 16 elements
/// used here.
constexpr double kSteeringSymmetryTol = 1e-13;

/// The paper radar in the office position the pipeline tests use.
radar::RadarConfig e2eConfig() {
  radar::RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-6;
  return cfg;
}

// The FMA levels beamform angle N - 1 - a with conj(w(a)): the processor's
// grid must be symmetric about pi / 2 and its steering entries conjugate
// pairs, up to rounding.
TEST(KernelBeamformRows, ProcessorSteeringIsConjugateSymmetric) {
  const double pi = common::pi();
  for (int antennas : {3, 7, 16}) {
    radar::RadarConfig cfg = e2eConfig();
    cfg.numAntennas = antennas;
    for (std::size_t n : kProcessorAngleCounts) {
      radar::ProcessorOptions options;
      options.numAngleBins = n;
      const radar::Processor proc(cfg, options);
      const std::vector<double>& theta = proc.anglesRad();
      const std::vector<Complex>& w = proc.steering().w;
      const std::size_t nAnt = static_cast<std::size_t>(antennas);
      ASSERT_EQ(theta.size(), n);
      ASSERT_EQ(w.size(), n * nAnt);
      for (std::size_t a = 0; a < n; ++a) {
        const double sum = theta[a] + theta[n - 1 - a];
        EXPECT_GE(sum, std::nextafter(pi, 0.0)) << "N=" << n << " a=" << a;
        EXPECT_LE(sum, std::nextafter(pi, 4.0)) << "N=" << n << " a=" << a;
        for (std::size_t k = 0; k < nAnt; ++k) {
          const Complex mirror = w[(n - 1 - a) * nAnt + k];
          const Complex conjugate = std::conj(w[a * nAnt + k]);
          EXPECT_LE(std::abs(mirror - conjugate), kSteeringSymmetryTol)
              << "antennas=" << antennas << " N=" << n << " a=" << a
              << " k=" << k;
        }
      }
      // The planes hold the first ceil(N / 2) angles of w, bit for bit.
      std::vector<double> reT, imT;
      steeringPlanes(w, nAnt, n, reT, imT);
      EXPECT_EQ(proc.steering().reT, reT) << "N=" << n;
      EXPECT_EQ(proc.steering().imT, imT) << "N=" << n;
    }
  }
}

// The two regimes' rows on the processor's steering matrix, with random
// spectra: sse2 beamforms every stored angle, the FMA regime mirrors the
// first half, and both stay within the kernel bound.
TEST(KernelBeamformRows, CrossRegimeWithinDocumentedBound) {
  constexpr std::size_t kRows = 9;
  for (int antennas : {1, 3, 7, 9}) {
    radar::RadarConfig cfg = e2eConfig();
    cfg.numAntennas = antennas;
    const std::size_t nAnt = static_cast<std::size_t>(antennas);
    for (std::size_t n : kProcessorAngleCounts) {
      radar::ProcessorOptions options;
      options.numAngleBins = n;
      const radar::Processor proc(cfg, options);
      const radar::SteeringMatrix& steering = proc.steering();
      const std::vector<Complex> s =
          randomComplex(kRows * nAnt, 8000 + 16 * n + nAnt);
      std::vector<double> scalar(kRows * n), fmaRef(kRows * n);
      radar::detail::beamformRowsScalar(s.data(), kRows, steering.w.data(),
                                        steering.reT.data(),
                                        steering.imT.data(), nAnt, n,
                                        scalar.data());
      radar::detail::beamformRowsFmaRef(s.data(), kRows, steering.w.data(),
                                        steering.reT.data(),
                                        steering.imT.data(), nAnt, n,
                                        fmaRef.data());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        ASSERT_TRUE(withinTol(scalar[i], fmaRef[i], kKernelTol))
            << "beamforming cross-regime drift exceeds the documented bound "
            << kKernelTol << " (DESIGN.md Sec. 13): antennas=" << antennas
            << " N=" << n << " cell " << i << " sse2=" << scalar[i]
            << " fma=" << fmaRef[i];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Counter-based Gaussian noise: every level against its reference over
// sizes 1-17 (the four-lane split and its tail) and the paper radar's
// 500. The kernel accumulates, so the row starts non-zero; eight NaN
// sentinel samples past it prove the tail touches nothing beyond n.
// They are signaling NaNs: a quiet NaN would pass through a stray
// load-fma-store with its bits unchanged, a signaling one comes out
// quieted. The tuples cover stream 0, a counter above 2^32 and all-ones
// bits.

struct NoiseCoords {
  std::uint64_t seed, counter, stream;
};

constexpr NoiseCoords kNoiseCoords[] = {
    {1, 0, 0},
    {0x5eed, 7, 3},
    {0xdeadbeefcafef00dull, (1ull << 32) + 5, 6},
    {~0ull, ~0ull, ~0ull - 1}};

TEST(KernelAwgn, EveryLevelBitIdenticalToItsReference) {
  constexpr std::size_t kSentinels = 8;
  const double nan = std::numeric_limits<double>::signaling_NaN();
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(500);
  for (std::size_t n : sizes) {
    std::vector<Complex> init = randomComplex(n, 8000 + n);
    init.resize(n + kSentinels, Complex(nan, nan));
    for (const NoiseCoords& c : kNoiseCoords) {
      for (KernelLevel level : simd::availableKernelLevels()) {
        const signal::detail::AwgnAccumFn fn =
            signal::detail::awgnAccumForLevel(level);
        const signal::detail::AwgnAccumFn refFn =
            level == KernelLevel::kSse2 ? &signal::detail::awgnAccumScalar
                                        : &signal::detail::awgnAccumFmaRef;
        std::vector<Complex> out = init;
        std::vector<Complex> ref = init;
        fn(out.data(), n, 0.7, c.seed, c.counter, c.stream);
        refFn(ref.data(), n, 0.7, c.seed, c.counter, c.stream);
        EXPECT_TRUE(bitIdentical(out, ref))
            << "level=" << simd::kernelLevelName(level) << " n=" << n
            << " seed=" << c.seed << " counter=" << c.counter
            << " stream=" << c.stream;
      }
    }
  }
}

TEST(KernelAwgn, CrossRegimeWithinDocumentedBound) {
  // Over 2^16 unit-sigma samples from zero, as 128 bursts of 515 (each
  // ends in a three-sample tail): the sse2 libm values against the FMA
  // chain (its reference, and each FMA level this host runs).
  std::vector<signal::detail::AwgnAccumFn> fmaFns = {
      &signal::detail::awgnAccumFmaRef};
  for (KernelLevel level : fmaLevels()) {
    fmaFns.push_back(signal::detail::awgnAccumForLevel(level));
  }
  constexpr std::size_t kBurst = 515;
  for (std::uint64_t burst = 0; burst < 128; ++burst) {
    const std::uint64_t counter = burst / 8;
    const std::uint64_t stream = burst % 8;
    std::vector<Complex> scalar(kBurst);
    signal::detail::awgnAccumScalar(scalar.data(), kBurst, 1.0, 77, counter,
                                    stream);
    for (signal::detail::AwgnAccumFn fn : fmaFns) {
      std::vector<Complex> fma(kBurst);
      fn(fma.data(), kBurst, 1.0, 77, counter, stream);
      for (std::size_t i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(withinTol(scalar[i], fma[i], kKernelTol))
            << "noise cross-regime drift exceeds the documented bound "
            << kKernelTol << " (DESIGN.md Sec. 13) at counter=" << counter
            << " stream=" << stream << " sample " << i
            << ": sse2=" << scalar[i] << " fma=" << fma[i];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Map-scan kernels (PeakDetector's noise floor and threshold sweep): every
// level against the scalar forms by memcmp, over row widths 1-17 (the
// eight-lane split and its masked tail) and the paper map's 181. Eight
// sentinels past every output prove the kernels write nothing beyond it.

constexpr std::size_t kMapSentinels = 8;

std::vector<std::size_t> mapRowWidths() {
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  widths.push_back(181);
  return widths;
}

std::vector<double> exponentialCells(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> cells(n);
  for (double& c : cells) c = rng.exponential(1.0);
  return cells;
}

TEST(KernelMapScan, MinMaxRowsEveryLevelBitIdenticalToScalar) {
  constexpr std::uint64_t kSentinel = 0x5eed5eed5eed5eedull;
  constexpr std::size_t kRows = 3;
  for (std::size_t cols : mapRowWidths()) {
    // Row 0 peaks at its first column, row 1 at its last, row 2 holds a
    // sign-bit cell (-0.0 at the first column, -1.0 elsewhere), whose
    // pattern exceeds every non-negative one.
    std::vector<double> cells = exponentialCells(kRows * cols, 900 + cols);
    cells[0] = 1e3;
    cells[2 * cols - 1] = 2e3;
    cells[2 * cols + cols / 2] = cols == 1 ? -0.0 : -1.0;
    for (std::size_t rows : {std::size_t{0}, std::size_t{1}, kRows}) {
      std::vector<std::uint64_t> ref(rows + kMapSentinels, kSentinel);
      const tracking::detail::BitRange want =
          tracking::detail::minMaxRowsScalar(cells.data(), rows, cols,
                                             ref.data());
      for (KernelLevel level : simd::availableKernelLevels()) {
        std::vector<std::uint64_t> out(rows + kMapSentinels, kSentinel);
        const tracking::detail::BitRange got =
            tracking::detail::mapScanKernelsForLevel(level).minMaxRows(
                cells.data(), rows, cols, out.data());
        EXPECT_TRUE(got.lo == want.lo && got.hi == want.hi &&
                    std::memcmp(out.data(), ref.data(),
                                out.size() * sizeof(std::uint64_t)) == 0)
            << "level=" << simd::kernelLevelName(level) << " rows=" << rows
            << " cols=" << cols;
      }
    }
  }
}

TEST(KernelMapScan, ScanRowsEveryLevelBitIdenticalToScalar) {
  constexpr std::uint64_t kSentinel = 0x5eed5eed5eed5eedull;
  const double sentinel = std::nan("0x5eed");
  // The bracket [lo, lo + width): cells at its first and last pattern and
  // one pattern outside either end, among cells far inside and outside,
  // sign-bit, NaN and -0.0 cells; then the same cells against an empty
  // bracket, every pattern from +0.0 to +inf, and every pattern but the
  // all-ones one.
  const std::uint64_t lo = std::bit_cast<std::uint64_t>(1.0);
  const std::uint64_t width = std::uint64_t{1} << 20;
  const std::uint64_t inf =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  const std::uint64_t edges[] = {lo, lo + width - 1, lo - 1, lo + width};
  const std::uint64_t odd[] = {
      std::bit_cast<std::uint64_t>(-0.0), std::bit_cast<std::uint64_t>(-1.0),
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()),
      ~0ull};
  struct Bracket {
    std::uint64_t lo;
    std::uint64_t width;
  };
  const Bracket brackets[] = {{lo, width}, {lo, 0}, {0, inf + 1}, {0, ~0ull}};
  constexpr std::size_t kRows = 3;
  for (std::size_t cols : mapRowWidths()) {
    common::Rng rng(950 + cols);
    const std::size_t n = kRows * cols;
    std::vector<double> cells(n + kMapSentinels, sentinel);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      const std::uint64_t bits =
          u < 0.4   ? edges[i % 4]
          : u < 0.6 ? lo + static_cast<std::uint64_t>(rng.uniform() * 1e6)
          : u < 0.7 ? odd[i % 4]
                    : std::bit_cast<std::uint64_t>(rng.exponential(1.0));
      cells[i] = std::bit_cast<double>(bits);
    }
    for (const Bracket& bracket : brackets) {
      for (std::size_t rows : {std::size_t{0}, std::size_t{1}, kRows}) {
        const std::size_t m = rows * cols;
        // The scalar form against the definition.
        std::vector<double> ref(m + kMapSentinels, sentinel);
        std::vector<std::uint64_t> refMax(rows + kMapSentinels, kSentinel);
        const tracking::detail::RowScan want =
            tracking::detail::scanRowsScalar(cells.data(), rows, cols,
                                             bracket.lo, bracket.width,
                                             ref.data(), refMax.data());
        std::size_t below = 0;
        std::vector<double> band;
        tracking::detail::BitRange range{~0ull, 0};
        for (std::size_t r = 0; r < rows; ++r) {
          std::uint64_t top = 0;
          for (std::size_t i = r * cols; i < (r + 1) * cols; ++i) {
            const auto b = std::bit_cast<std::uint64_t>(cells[i]);
            below += b < bracket.lo;
            if (b - bracket.lo < bracket.width) band.push_back(cells[i]);
            range.lo = std::min(range.lo, b);
            top = std::max(top, b);
          }
          range.hi = std::max(range.hi, top);
          ASSERT_EQ(refMax[r], top) << "cols=" << cols << " row " << r;
        }
        ASSERT_TRUE(want.below == below && want.inBand == band.size() &&
                    want.range.lo == range.lo && want.range.hi == range.hi &&
                    (band.empty() ||
                     std::memcmp(ref.data(), band.data(),
                                 band.size() * sizeof(double)) == 0))
            << "scalar form, rows=" << rows << " cols=" << cols;

        // Every level against the scalar form: counts, range, the kept
        // cells, the row maxima and the sentinels past either output.
        // Entries from inBand up to m are unspecified.
        const auto same = [&](const tracking::detail::RowScan& got,
                              const std::vector<double>& out) {
          return got.below == want.below && got.inBand == want.inBand &&
                 got.range.lo == want.range.lo &&
                 got.range.hi == want.range.hi &&
                 std::memcmp(out.data(), ref.data(),
                             want.inBand * sizeof(double)) == 0 &&
                 std::memcmp(out.data() + m, ref.data() + m,
                             kMapSentinels * sizeof(double)) == 0;
        };
        for (KernelLevel level : simd::availableKernelLevels()) {
          const tracking::detail::ScanRowsFn fn =
              tracking::detail::mapScanKernelsForLevel(level).scanRows;
          std::vector<double> out(m + kMapSentinels, sentinel);
          std::vector<std::uint64_t> rowMax(rows + kMapSentinels, kSentinel);
          const tracking::detail::RowScan got =
              fn(cells.data(), rows, cols, bracket.lo, bracket.width,
                 out.data(), rowMax.data());
          std::vector<double> inPlace(cells.begin(), cells.begin() + m);
          inPlace.resize(m + kMapSentinels, sentinel);
          const tracking::detail::RowScan gotInPlace =
              fn(inPlace.data(), rows, cols, bracket.lo, bracket.width,
                 inPlace.data(), nullptr);
          EXPECT_TRUE(same(got, out) &&
                      std::memcmp(rowMax.data(), refMax.data(),
                                  rowMax.size() * sizeof(std::uint64_t)) ==
                          0)
              << "level=" << simd::kernelLevelName(level)
              << " rows=" << rows << " cols=" << cols
              << " bracket width=" << bracket.width;
          EXPECT_TRUE(same(gotInPlace, inPlace))
              << "in place, level=" << simd::kernelLevelName(level)
              << " rows=" << rows << " cols=" << cols
              << " bracket width=" << bracket.width;
        }
      }
    }
  }
}

TEST(KernelMapScan, LocalMaxRowEveryLevelBitIdenticalToScalar) {
  constexpr std::size_t kSentinel = 0x5eed;
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t cols : mapRowWidths()) {
    // Three rows of small integers, so equal neighbours (plateaus) are
    // common, with NaN and -0.0 cells among them; peaks at the first and
    // the last interior column.
    common::Rng rng(990 + cols);
    std::vector<double> rows(3 * cols);
    for (double& c : rows) {
      const double u = rng.uniform();
      c = u < 0.05 ? nan : u < 0.1 ? -0.0 : std::floor(rng.uniform(0.0, 4.0));
    }
    double* row = rows.data() + cols;
    if (cols >= 3) {
      row[1] = 9.0;
      row[cols - 2] = 9.0;
    }
    const std::size_t capacity = cols >= 2 ? cols - 2 : 0;
    for (double threshold : {-inf, 0.5, 1.5, 9.0, nan}) {
      std::vector<std::size_t> ref(capacity + kMapSentinels, kSentinel);
      const std::size_t want = tracking::detail::localMaxRowScalar(
          rows.data(), row, row + cols, cols, threshold, ref.data());
      for (KernelLevel level : simd::availableKernelLevels()) {
        std::vector<std::size_t> out(capacity + kMapSentinels, kSentinel);
        const std::size_t got =
            tracking::detail::mapScanKernelsForLevel(level).localMaxRow(
                rows.data(), row, row + cols, cols, threshold, out.data());
        EXPECT_TRUE(got == want &&
                    std::memcmp(out.data(), ref.data(),
                                out.size() * sizeof(std::size_t)) == 0)
            << "level=" << simd::kernelLevelName(level) << " cols=" << cols
            << " threshold=" << threshold;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end radar pipeline: per-level thread invariance and
// cross-regime tolerance of the range-angle power map.

radar::RangeAngleMap e2eMap(const radar::RadarConfig& cfg,
                            std::size_t numAngleBins) {
  radar::ProcessorOptions options;
  options.numAngleBins = numAngleBins;
  const radar::Frontend fe(cfg);
  const radar::Processor proc(cfg, options);
  std::vector<env::PointScatterer> scatterers(2);
  scatterers[0].position = cfg.position + common::Vec2{0.3, 3.0};
  scatterers[1].position = cfg.position + common::Vec2{-1.0, 5.5};
  scatterers[1].amplitude = 0.6;
  const radar::Frame frame =
      fe.synthesize(scatterers, 0.0, /*noiseSeed=*/99, /*chirpIndex=*/0);
  return proc.process(frame);
}

TEST(KernelRadarPipeline, CrossRegimeMapWithinDocumentedBound) {
  const auto fma = fmaLevels();
  if (fma.empty()) GTEST_SKIP() << "host has no FMA-regime level";
  LevelGuard guard;
  const radar::RadarConfig cfg = e2eConfig();
  for (std::size_t n : kProcessorAngleCounts) {
    simd::setActiveKernelLevel(KernelLevel::kSse2);
    const radar::RangeAngleMap scalar = e2eMap(cfg, n);
    simd::setActiveKernelLevel(fma.back());
    const radar::RangeAngleMap fmaMap = e2eMap(cfg, n);
    ASSERT_EQ(scalar.power.size(), fmaMap.power.size());
    for (std::size_t i = 0; i < scalar.power.size(); ++i) {
      ASSERT_TRUE(withinTol(scalar.power[i], fmaMap.power[i], kEndToEndTol))
          << "end-to-end cross-regime drift exceeds the documented bound "
          << kEndToEndTol << " (DESIGN.md Sec. 13) at N=" << n << " cell "
          << i << ": sse2=" << scalar.power[i] << " fma=" << fmaMap.power[i];
    }
  }
}

TEST(KernelRadarPipeline, FmaWidthsProduceIdenticalMaps) {
  const auto fma = fmaLevels();
  if (fma.size() < 2) {
    GTEST_SKIP() << "host supports " << fma.size()
                 << " FMA level(s); need avx2_fma and avx512";
  }
  LevelGuard guard;
  const radar::RadarConfig cfg = e2eConfig();
  for (std::size_t n : kProcessorAngleCounts) {
    simd::setActiveKernelLevel(fma[0]);
    const radar::RangeAngleMap narrow = e2eMap(cfg, n);
    simd::setActiveKernelLevel(fma[1]);
    const radar::RangeAngleMap wide = e2eMap(cfg, n);
    ASSERT_EQ(narrow.power.size(), wide.power.size());
    EXPECT_EQ(std::memcmp(narrow.power.data(), wide.power.data(),
                          narrow.power.size() * sizeof(double)),
              0)
        << "avx2_fma and avx512 range-angle maps diverged at N=" << n
        << ": the two FMA widths must share one numeric regime (DESIGN.md "
           "Sec. 13)";
  }
}

// ---------------------------------------------------------------------------
// Service ledger records the regime that produced it.

TEST(KernelLedger, SerializeHeaderNamesActiveLevel) {
  LevelGuard guard;
  for (KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    service::ServiceLedger ledger;
    const std::string expected =
        std::string("# kernel=") + simd::kernelLevelName(level) + "\n";
    EXPECT_EQ(ledger.serialize(), expected)
        << "level=" << simd::kernelLevelName(level);
  }
}

}  // namespace
}  // namespace rfp
