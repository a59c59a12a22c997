#include "signal/fft.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/cache_budget.h"
#include "common/constants.h"
#include "common/cpuid.h"
#include "common/fma_complex.h"
#include "signal/fft_kernels.h"

namespace rfp::signal {

namespace {

bool isPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Builds the plan for length \p n. Each stage's twiddles are generated by
/// the same `w *= wlen` recurrence the original uncached butterfly ran, so
/// cached transforms are bit-identical to the pre-cache implementation.
FftPlan buildPlan(std::size_t n) {
  FftPlan plan;
  plan.n = n;
  plan.twiddles.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * rfp::common::pi() / static_cast<double>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    Complex w(1.0, 0.0);
    Complex* stage = plan.twiddles.data() + (len / 2 - 1);
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wlen;
    }
  }
  plan.bitReverse.resize(n);
  const int bits = std::countr_zero(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
    plan.bitReverse[i] = static_cast<std::uint32_t>(r);
    if (i < r) {
      plan.swaps.emplace_back(static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(r));
    }
  }
  return plan;
}

/// The butterfly stages of an iterative Cooley-Tukey transform over data
/// already in bit-reversed order; forward = false for inverse (the forward
/// table is conjugated on the fly). The per-stage butterfly pass is
/// dispatched once per call through the cpuid-selected kernel (DESIGN.md
/// Sec. 13).
void runStages(Complex* a, const FftPlan& plan, bool forward) {
  const detail::StagePassFn pass =
      detail::stagePassForLevel(rfp::common::simd::activeKernelLevel());
  for (std::size_t len = 2; len <= plan.n; len <<= 1) {
    pass(a, plan.n, len, plan.twiddles.data() + (len / 2 - 1), forward);
  }
}

void transform(Complex* a, std::size_t n, bool forward) {
  if (!isPowerOfTwo(n)) {
    throw std::invalid_argument("FFT length must be a power of two");
  }
  if (n < 2) return;
  const auto plan = fftPlanFor(n);
  for (const auto& [i, j] : plan->swaps) std::swap(a[i], a[j]);
  runStages(a, *plan, forward);
}

}  // namespace

namespace detail {

void stagePassScalar(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const Complex w = forward ? stage[k] : std::conj(stage[k]);
      const Complex u = a[i + k];
      const Complex v = a[i + k + half] * w;
      a[i + k] = u + v;
      a[i + k + half] = u - v;
    }
  }
}

void stagePassFmaRef(Complex* a, std::size_t n, std::size_t len,
                     const Complex* stage, bool forward) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const Complex w = forward ? stage[k] : std::conj(stage[k]);
      const Complex u = a[i + k];
      const Complex v = rfp::common::simd::fmaComplexMul(a[i + k + half], w);
      a[i + k] = u + v;
      a[i + k + half] = u - v;
    }
  }
}

StagePassFn stagePassForLevel(rfp::common::simd::KernelLevel level) {
  using rfp::common::simd::KernelLevel;
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return &stagePassAvx512;
    case KernelLevel::kAvx2Fma:
      return &stagePassAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &stagePassScalar;
}

}  // namespace detail

namespace {

/// Plan cache under the FFT half of the cache budget: a fleet of
/// heterogeneous radar configs would otherwise accumulate one plan per
/// distinct FFT size for the process lifetime.
std::size_t planBytes(const FftPlan& plan) {
  return plan.twiddles.size() * sizeof(Complex) +
         plan.bitReverse.size() * sizeof(std::uint32_t) +
         plan.swaps.size() * sizeof(plan.swaps[0]);
}

}  // namespace

std::shared_ptr<const FftPlan> fftPlanFor(std::size_t n) {
  if (!isPowerOfTwo(n) || n < 2) {
    throw std::invalid_argument(
        "fftPlanFor: length must be a power of two >= 2");
  }
  static rfp::common::LruCache<std::size_t, FftPlan> cache(
      rfp::common::kCacheBudgetBytes / 2, &planBytes);
  return cache.get(n, [n] { return buildPlan(n); });
}

void fftWindowedInto(const FftPlan& plan, std::span<const Complex> samples,
                     std::span<const double> window, std::span<Complex> out) {
  if (window.size() != samples.size() || samples.size() > plan.n ||
      out.size() != plan.n) {
    throw std::invalid_argument("fftWindowedInto: length mismatch");
  }
  // The same complex * double product applyWindow makes, written to the
  // slot the bit-reversal permutation would move it to.
  std::fill(out.begin(), out.end(), Complex{});
  const std::uint32_t* rev = plan.bitReverse.data();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out[rev[i]] = samples[i] * window[i];
  }
  runStages(out.data(), plan, true);
}

std::size_t nextPowerOfTwo(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fftInPlace(std::vector<Complex>& data) {
  transform(data.data(), data.size(), true);
}

void ifftInPlace(std::vector<Complex>& data) {
  transform(data.data(), data.size(), false);
  const double inv = 1.0 / static_cast<double>(data.size());
  for (Complex& x : data) x *= inv;
}

std::vector<Complex> fft(std::span<const Complex> input, std::size_t size) {
  if (size == 0) size = nextPowerOfTwo(input.size());
  if (!isPowerOfTwo(size) || size < input.size()) {
    throw std::invalid_argument(
        "fft: size must be a power of two >= input length");
  }
  std::vector<Complex> data(input.begin(), input.end());
  data.resize(size, Complex{});
  fftInPlace(data);
  return data;
}

std::vector<Complex> ifft(std::span<const Complex> input) {
  std::vector<Complex> data(input.begin(), input.end());
  ifftInPlace(data);
  return data;
}

std::vector<double> magnitude(std::span<const Complex> spectrum) {
  std::vector<double> mag;
  mag.reserve(spectrum.size());
  for (const Complex& x : spectrum) mag.push_back(std::abs(x));
  return mag;
}

std::vector<double> powerDb(std::span<const Complex> spectrum, double eps) {
  std::vector<double> db;
  db.reserve(spectrum.size());
  for (const Complex& x : spectrum) {
    db.push_back(20.0 * std::log10(std::abs(x) + eps));
  }
  return db;
}

std::size_t peakBin(std::span<const Complex> spectrum, std::size_t first,
                    std::size_t last) {
  if (last == 0 || last > spectrum.size()) last = spectrum.size();
  if (first >= last) throw std::invalid_argument("peakBin: empty bin range");
  std::size_t best = first;
  double bestMag = std::abs(spectrum[first]);
  for (std::size_t i = first + 1; i < last; ++i) {
    const double m = std::abs(spectrum[i]);
    if (m > bestMag) {
      bestMag = m;
      best = i;
    }
  }
  return best;
}

double parabolicPeakInterpolation(std::span<const Complex> spectrum,
                                  std::size_t bin) {
  if (bin == 0 || bin + 1 >= spectrum.size()) {
    return static_cast<double>(bin);
  }
  const double eps = 1e-12;
  const double ym = std::log(std::abs(spectrum[bin - 1]) + eps);
  const double y0 = std::log(std::abs(spectrum[bin]) + eps);
  const double yp = std::log(std::abs(spectrum[bin + 1]) + eps);
  const double denom = ym - 2.0 * y0 + yp;
  if (std::fabs(denom) < 1e-30) return static_cast<double>(bin);
  const double delta = 0.5 * (ym - yp) / denom;
  // Clamp to the neighboring half-bins to keep outliers benign.
  const double clamped = std::max(-0.5, std::min(0.5, delta));
  return static_cast<double>(bin) + clamped;
}

}  // namespace rfp::signal
