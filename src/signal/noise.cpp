#include "signal/noise.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/cpuid.h"
#include "common/det_hash.h"
#include "signal/noise_kernels.h"

namespace rfp::signal {

void addAwgn(std::span<std::complex<double>> samples, double noisePower,
             rfp::common::Rng& rng) {
  if (noisePower < 0.0) {
    throw std::invalid_argument("addAwgn: noise power must be >= 0");
  }
  if (noisePower == 0.0) return;
  const double sigma = std::sqrt(noisePower / 2.0);
  for (auto& x : samples) {
    x += std::complex<double>(rng.gaussian(0.0, sigma),
                              rng.gaussian(0.0, sigma));
  }
}

void addAwgn(std::span<std::complex<double>> samples, double noisePower,
             std::uint64_t seed, std::uint64_t counter, std::uint64_t stream) {
  if (noisePower < 0.0) {
    throw std::invalid_argument("addAwgn: noise power must be >= 0");
  }
  if (noisePower == 0.0) return;
  detail::awgnAccumForLevel(rfp::common::simd::activeKernelLevel())(
      samples.data(), samples.size(), std::sqrt(noisePower / 2.0), seed,
      counter, stream);
}

namespace detail {

void awgnAccumScalar(std::complex<double>* dst, std::size_t n, double sigma,
                     std::uint64_t seed, std::uint64_t counter,
                     std::uint64_t stream) {
  // Fold the antenna/stream id into the high half so it cannot collide
  // with the sample index.
  const std::uint64_t streamBase = (stream + 1) << 32;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [gi, gq] = rfp::common::hashGaussianPair(
        seed, counter, streamBase | static_cast<std::uint64_t>(i));
    dst[i] += std::complex<double>(sigma * gi, sigma * gq);
  }
}

void awgnAccumFmaRef(std::complex<double>* dst, std::size_t n, double sigma,
                     std::uint64_t seed, std::uint64_t counter,
                     std::uint64_t stream) {
  using rfp::common::hashUniform;
  const std::uint64_t streamBase = (stream + 1) << 32;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = streamBase | static_cast<std::uint64_t>(i);
    const double u1 = std::max(hashUniform(seed, counter, 2 * s), 0x1.0p-53);
    const double u2 = hashUniform(seed, counter, 2 * s + 1);

    // ln u1 = k ln2 + ln m, m in [sqrt(1/2), sqrt(2)).
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(u1);
    const std::uint64_t biasedK =
        (bits + (0x3ff0000000000000ull - kSqrtHalfBits)) >> 52;
    const double m =
        std::bit_cast<double>(bits - ((biasedK - 1023) << 52));
    const double k =
        std::bit_cast<double>(biasedK | 0x4330000000000000ull) -
        (0x1.0p52 + 1023.0);
    const double f = (m - 1.0) / (m + 1.0);
    const double f2 = f * f;
    double p = kLogCoef[8];
    for (int j = 7; j >= 0; --j) p = std::fma(p, f2, kLogCoef[j]);
    const double twoF = f + f;
    const double lnM = std::fma(twoF, f2 * p, twoF);
    const double lnU1 = std::fma(k, kLn2Hi, std::fma(k, kLn2Lo, lnM));
    const double rho = sigma * std::sqrt(-2.0 * lnU1);

    // sin/cos(2 pi u2) = sin/cos(pi/2 (q + t)), exact quarter-turn split.
    const double x = 4.0 * u2;
    const double shifted = x + 0x1.8p52;
    const double q = shifted - 0x1.8p52;
    const double t = x - q;
    const SinCos g =
        quarterTurnSinCos(t, std::bit_cast<std::uint64_t>(shifted));

    dst[i] = {std::fma(rho, g.cos, dst[i].real()),
              std::fma(rho, g.sin, dst[i].imag())};
  }
}

SinCos quarterTurnSinCos(double t, std::uint64_t quadrant) {
  const double t2 = t * t;
  double ps = kSinCoef[8];
  double pc = kCosCoef[8];
  for (int j = 7; j >= 0; --j) {
    ps = std::fma(ps, t2, kSinCoef[j]);
    pc = std::fma(pc, t2, kCosCoef[j]);
  }
  const double sinT = t * ps;
  double sinV = (quadrant & 1) ? pc : sinT;
  double cosV = (quadrant & 1) ? sinT : pc;
  if (quadrant & 2) sinV = -sinV;
  if ((quadrant ^ (quadrant >> 1)) & 1) cosV = -cosV;
  return {sinV, cosV};
}

AwgnAccumFn awgnAccumForLevel(rfp::common::simd::KernelLevel level) {
  using rfp::common::simd::KernelLevel;
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
    case KernelLevel::kAvx2Fma:
      return &awgnAccumAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &awgnAccumScalar;
}

}  // namespace detail

std::vector<std::complex<double>> complexAwgn(std::size_t n, double noisePower,
                                              rfp::common::Rng& rng) {
  std::vector<std::complex<double>> out(n);
  addAwgn(out, noisePower, rng);
  return out;
}

double averagePower(std::span<const std::complex<double>> samples) {
  if (samples.empty()) return 0.0;
  double s = 0.0;
  for (const auto& x : samples) s += std::norm(x);
  return s / static_cast<double>(samples.size());
}

double snrDb(double signalPower, double noisePower) {
  if (signalPower <= 0.0 || noisePower <= 0.0) {
    throw std::invalid_argument("snrDb: powers must be positive");
  }
  return 10.0 * std::log10(signalPower / noisePower);
}

}  // namespace rfp::signal
