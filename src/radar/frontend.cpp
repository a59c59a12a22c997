#include "radar/frontend.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/cpuid.h"
#include "radar/simd_kernels.h"
#include "signal/noise.h"

namespace rfp::radar {

using rfp::common::Vec2;

Frontend::Frontend(RadarConfig config) : config_(std::move(config)) {
  config_.validate();
  for (int k = 0; k < config_.numAntennas; ++k) {
    const Vec2 rx = config_.antennaPosition(k);
    geometry_.rxX.push_back(rx.x);
    geometry_.rxY.push_back(rx.y);
  }
  geometry_.slopeHzPerS = config_.chirp.slope();
  geometry_.startHz = config_.chirp.startHz;
  geometry_.sampleIntervalS = 1.0 / config_.chirp.sampleRateHz;
}

double Frontend::pathAmplitude(double distanceM) const {
  const double d = std::max(distanceM, 0.3);
  return std::pow(config_.pathLossRefM / d, config_.pathLossExponent);
}

Frame Frontend::synthesize(std::span<const env::PointScatterer> scatterers,
                           double timestampS, rfp::common::Rng& rng) const {
  // One sequential draw on the calling thread seeds this chirp's noise
  // streams; everything downstream is counter-based and order-free.
  const std::uint64_t noiseSeed =
      config_.noisePower > 0.0 ? rng.engine()() : 0;
  return synthesize(scatterers, timestampS, noiseSeed, /*chirpIndex=*/0);
}

Frame Frontend::synthesize(std::span<const env::PointScatterer> scatterers,
                           double timestampS, std::uint64_t noiseSeed,
                           std::uint64_t chirpIndex) const {
  Frame frame;
  SynthScratch scratch;
  synthesizeInto(frame, scatterers, timestampS, noiseSeed, chirpIndex,
                 scratch);
  return frame;
}

void Frontend::synthesizeInto(Frame& frame,
                              std::span<const env::PointScatterer> scatterers,
                              double timestampS, std::uint64_t noiseSeed,
                              std::uint64_t chirpIndex,
                              SynthScratch& scratch) const {
  const std::size_t numSamples = config_.chirp.samplesPerChirp();
  const std::size_t numAntennas =
      static_cast<std::size_t>(config_.numAntennas);
  const Vec2 txPos = config_.position;  // TX colocated with element 0

  frame.timestampS = timestampS;
  frame.samples.resize(numAntennas);
  for (auto& row : frame.samples) row.assign(numSamples, Complex{});

  // The tone kernels run at the cpuid-selected level (DESIGN.md Sec. 13),
  // resolved once per frame.
  const rfp::common::simd::KernelLevel level =
      rfp::common::simd::activeKernelLevel();
  const detail::ToneSetupFn setup = detail::toneSetupForLevel(level);
  const detail::ToneAccumChainsFn accumChains =
      detail::toneAccumChainsForLevel(level);

  // Resolve pass, in list order. A scatterer whose amplitude after path
  // loss is not positive (zero, negative or NaN) is no tone: a zero tone
  // adds nothing, and a phasor's magnitude must be neither negative nor
  // NaN. Every other one is listed for the setup call below.
  detail::ToneInputs& tones = scratch.tones;
  tones.reset(scatterers.size());
  for (const env::PointScatterer& s : scatterers) {
    const double dTx = (s.position - txPos).norm() + s.radialOffsetM;
    const double amp = s.amplitude * pathAmplitude(dTx);
    if (amp > 0.0) tones.push(s, amp, dTx);
  }

  // One setup call builds tone i's chain at antenna k in column i of row
  // k, so every antenna row reads its chains contiguously in list order.
  const std::size_t count = tones.count;
  scratch.chains.resize(numAntennas * count);
  setup(geometry_, tones, scratch.chains.data(), count);

  // Each antenna adds its chains in list order in one kernel call, then
  // its own noise stream.
  for (std::size_t k = 0; k < numAntennas; ++k) {
    std::vector<Complex>& dst = frame.samples[k];
    accumChains(dst.data(), numSamples, scratch.chains.data() + k * count,
                count);
    if (config_.noisePower > 0.0) {
      rfp::signal::addAwgn(dst, config_.noisePower, noiseSeed, chirpIndex,
                           /*stream=*/k);
    }
  }
}

void applyAdcSaturation(Frame& frame, double clipLevel) {
  if (!(clipLevel > 0.0) || !std::isfinite(clipLevel)) {
    throw std::invalid_argument(
        "applyAdcSaturation: clip level must be positive and finite");
  }
  for (auto& antenna : frame.samples) {
    for (Complex& s : antenna) {
      s = {std::clamp(s.real(), -clipLevel, clipLevel),
           std::clamp(s.imag(), -clipLevel, clipLevel)};
    }
  }
}

}  // namespace rfp::radar
