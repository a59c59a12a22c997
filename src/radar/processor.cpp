#include "radar/processor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <tuple>

#include "common/cache_budget.h"
#include "common/constants.h"
#include "common/cpuid.h"
#include "radar/simd_kernels.h"
#include "signal/fft.h"

namespace rfp::radar {

using rfp::common::Vec2;

namespace {

/// Process-wide steering-matrix cache. Keyed by everything the matrix
/// depends on -- angle-grid size, array size, element spacing, and
/// wavelength (doubles compared by exact bit pattern, so any config change
/// resolves to a fresh entry rather than a stale one). Entries are
/// immutable and shared across Processor instances and threads, under the
/// steering half of the cache budget.
using SteeringKey = std::tuple<std::size_t, int, std::uint64_t, std::uint64_t>;

std::size_t steeringBytes(const SteeringMatrix& m) {
  // Interleaved matrix of every angle + the two planes of the first
  // ceil(numAngles / 2).
  return m.w.size() * sizeof(Complex) +
         (m.reT.size() + m.imT.size()) * sizeof(double);
}

rfp::common::LruCache<SteeringKey, SteeringMatrix>& steeringCache() {
  static rfp::common::LruCache<SteeringKey, SteeringMatrix> cache(
      rfp::common::kCacheBudgetBytes / 2, &steeringBytes);
  return cache;
}

std::shared_ptr<const SteeringMatrix> steeringFor(
    const std::vector<double>& anglesRad, int numAntennas, double spacingM,
    double lambda) {
  const SteeringKey key{anglesRad.size(), numAntennas,
                        std::bit_cast<std::uint64_t>(spacingM),
                        std::bit_cast<std::uint64_t>(lambda)};
  return steeringCache().get(key, [&] {
    // Steering phases: the synthesized receive phase of antenna k relative
    // to antenna 0 is -2*pi*k*d*cos(theta)/lambda (one-way path
    // shortening), so the matched beamformer multiplies by the conjugate
    // (paper Eq. 2).
    const double twoPi = 2.0 * rfp::common::pi();
    const std::size_t numAngles = anglesRad.size();
    const std::size_t nAnt = static_cast<std::size_t>(numAntennas);
    const std::size_t h = (numAngles + 1) / 2;
    SteeringMatrix m;
    m.w.resize(numAngles * nAnt);
    m.reT.resize(nAnt * h);
    m.imT.resize(nAnt * h);
    for (std::size_t a = 0; a < numAngles; ++a) {
      const double cosTheta = std::cos(anglesRad[a]);
      for (std::size_t k = 0; k < nAnt; ++k) {
        const Complex v = std::polar(
            1.0,
            twoPi * spacingM * static_cast<double>(k) * cosTheta / lambda);
        m.w[a * nAnt + k] = v;
        if (a < h) {
          m.reT[k * h + a] = v.real();
          m.imT[k * h + a] = v.imag();
        }
      }
    }
    return m;
  });
}

}  // namespace

std::size_t steeringCacheEntries() { return steeringCache().size(); }

std::pair<std::size_t, std::size_t> RangeAngleMap::argmax() const {
  if (power.empty()) throw std::logic_error("RangeAngleMap::argmax: empty map");
  std::size_t best = 0;
  for (std::size_t i = 1; i < power.size(); ++i) {
    if (power[i] > power[best]) best = i;
  }
  return {best / anglesRad.size(), best % anglesRad.size()};
}

double RangeAngleMap::maxPower() const {
  if (power.empty()) return 0.0;
  return *std::max_element(power.begin(), power.end());
}

double RangeAngleMap::totalPower() const {
  double s = 0.0;
  for (double p : power) s += p;
  return s;
}

Processor::Processor(RadarConfig config, ProcessorOptions options)
    : config_(std::move(config)), options_(options) {
  config_.validate();
  if (options_.numAngleBins < 3) {
    throw std::invalid_argument("ProcessorOptions: need >= 3 angle bins");
  }
  const std::size_t samples = config_.chirp.samplesPerChirp();
  fftSize_ = options_.fftSize != 0
                 ? options_.fftSize
                 : rfp::signal::nextPowerOfTwo(2 * samples);
  if (fftSize_ < samples) {
    throw std::invalid_argument("ProcessorOptions: fftSize < samples/chirp");
  }
  windowCoeffs_ = rfp::signal::makeWindow(options_.window, samples);

  // Beat-frequency resolution of the padded FFT and the induced range axis.
  const double freqPerBin =
      config_.chirp.sampleRateHz / static_cast<double>(fftSize_);
  const double rangePerBin = config_.chirp.distanceAt(freqPerBin);
  firstBin_ = static_cast<std::size_t>(
      std::ceil(options_.minRangeM / rangePerBin));
  lastBin_ = std::min<std::size_t>(
      fftSize_ / 2,
      static_cast<std::size_t>(std::floor(options_.maxRangeM / rangePerBin)) +
          1);
  if (firstBin_ >= lastBin_) {
    throw std::invalid_argument("ProcessorOptions: empty range window");
  }

  const std::size_t numAngles = options_.numAngleBins;
  anglesRad_.resize(numAngles);
  for (std::size_t a = 0; a < numAngles; ++a) {
    anglesRad_[a] = rfp::common::pi() * static_cast<double>(a + 1) /
                    static_cast<double>(numAngles + 1);
  }
  steering_ = steeringFor(anglesRad_, config_.numAntennas, config_.spacing(),
                          config_.chirp.wavelength());
  fftPlan_ = rfp::signal::fftPlanFor(fftSize_);
  rangesM_.resize(lastBin_ - firstBin_);
  for (std::size_t r = 0; r < rangesM_.size(); ++r) rangesM_[r] = rangeOfBin(r);
}

double Processor::rangeOfBin(std::size_t rangeIdx) const {
  const double freqPerBin =
      config_.chirp.sampleRateHz / static_cast<double>(fftSize_);
  return config_.chirp.distanceAt(
      freqPerBin * static_cast<double>(firstBin_ + rangeIdx));
}

Vec2 Processor::toWorld(double rangeM, double angleRad) const {
  const Vec2 dir = config_.arrayAxis.rotated(angleRad);
  return config_.position + dir * rangeM;
}

rfp::common::Polar Processor::toRadarPolar(Vec2 world) const {
  const Vec2 d = world - config_.position;
  const double range = d.norm();
  const Vec2 u = config_.arrayAxis;
  // Angle from the array axis, counter-clockwise, in [0, pi] for points on
  // the scene side of the array.
  const double angle = std::atan2(u.cross(d), u.dot(d));
  return {range, angle};
}

void Processor::checkShape(const Frame& frame) const {
  if (frame.numAntennas() != static_cast<std::size_t>(config_.numAntennas)) {
    throw std::invalid_argument("Processor: frame antenna count mismatch");
  }
  if (frame.checkedSamplesPerChirp() != config_.chirp.samplesPerChirp()) {
    throw std::invalid_argument("Processor: frame sample count mismatch");
  }
}

void Processor::prepareMap(const Frame& frame, RangeAngleMap& out) const {
  checkShape(frame);
  const std::size_t numRanges = lastBin_ - firstBin_;
  out.timestampS = frame.timestampS;
  out.rangesM = rangesM_;
  out.anglesRad = anglesRad_;
  // No fill: the beamforming row kernels write every cell.
  out.power.resize(numRanges * options_.numAngleBins);
}

void Processor::fftAntennaInto(const Frame& frame, std::size_t k,
                               Complex* fftSlot, Complex* spectraT) const {
  // Bit-identical to the historical copy + applyWindow +
  // fft(windowed, fftSize_) chain, on caller storage, through the plan
  // this processor holds (no cache lookup, no lock).
  rfp::signal::fftWindowedInto(*fftPlan_, frame.samples[k], windowCoeffs_,
                               std::span<Complex>(fftSlot, fftSize_));
  const std::size_t nAnt = static_cast<std::size_t>(config_.numAntennas);
  const std::size_t numRanges = lastBin_ - firstBin_;
  for (std::size_t r = 0; r < numRanges; ++r) {
    spectraT[r * nAnt + k] = fftSlot[firstBin_ + r];
  }
}

void Processor::processInto(const Frame& frame, RangeAngleMap& out,
                            ProcessorScratch& scratch) const {
  prepareMap(frame, out);
  const std::size_t numRanges = lastBin_ - firstBin_;
  const std::size_t numAngles = options_.numAngleBins;
  const std::size_t nAnt = static_cast<std::size_t>(config_.numAntennas);

  scratch.fft.resize(fftSize_);
  scratch.spectraT.resize(numRanges * nAnt);

  // Window + range FFT of each antenna in turn through the one FFT slot;
  // each writes its own column of the transposed spectra, which makes the
  // beamforming dot stream unit-stride.
  for (std::size_t k = 0; k < nAnt; ++k) {
    fftAntennaInto(frame, k, scratch.fft.data(), scratch.spectraT.data());
  }

  // Eq. 2 over every range row in one call through the cpuid-selected
  // kernel (DESIGN.md Sec. 13), using the cached steering matrix. Each row
  // keeps a fixed antenna accumulation order, and the kernel's own row
  // grouping does not change a row's bits.
  const detail::BeamformRowsFn beamformRows =
      detail::beamformRowsForLevel(rfp::common::simd::activeKernelLevel());
  const SteeringMatrix& steering = *steering_;
  beamformRows(scratch.spectraT.data(), numRanges, steering.w.data(),
               steering.reT.data(), steering.imT.data(), nAnt, numAngles,
               out.power.data());
}

RangeAngleMap Processor::process(const Frame& frame) const {
  RangeAngleMap map;
  ProcessorScratch scratch;
  processInto(frame, map, scratch);
  return map;
}

const Frame* Processor::backgroundDiff(const Frame& frame) {
  // The stored frame passed this check too, so no antenna of either
  // frame is shorter than the loop below runs.
  const std::size_t samples = frame.checkedSamplesPerChirp();
  if (!hasPrevious_) {
    previous_ = frame;
    hasPrevious_ = true;
    return nullptr;
  }
  if (frame.numAntennas() != previous_.numAntennas() ||
      samples != previous_.samplesPerChirp()) {
    throw std::invalid_argument("Frame subtraction: shape mismatch");
  }
  diff_.timestampS = frame.timestampS;
  diff_.samples.resize(frame.numAntennas());
  for (std::size_t k = 0; k < frame.numAntennas(); ++k) {
    const std::vector<Complex>& cur = frame.samples[k];
    const std::vector<Complex>& prev = previous_.samples[k];
    std::vector<Complex>& d = diff_.samples[k];
    d.resize(cur.size());
    for (std::size_t n = 0; n < cur.size(); ++n) d[n] = cur[n] - prev[n];
  }
  // Copying after the loop measured faster than updating previous_ inside
  // it (EXPERIMENTS.md "Paper map stage, round 3").
  previous_ = frame;
  return &diff_;
}

void Processor::resetBackground() { hasPrevious_ = false; }

}  // namespace rfp::radar
