#include "radar/frontend.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/cpuid.h"
#include "common/det_hash.h"
#include "radar/simd_kernels.h"
#include "radar/tone_memo.h"
#include "signal/noise.h"

namespace rfp::radar {

using rfp::common::Vec2;

namespace {

std::uint64_t mixField(std::uint64_t h, double v) {
  return rfp::common::splitmix64(h ^ std::bit_cast<std::uint64_t>(v));
}

}  // namespace

Frontend::Frontend(RadarConfig config) : config_(std::move(config)) {
  config_.validate();
  // Hash every field the tone math reads: chirp timing/sweep, array
  // geometry, and the path-loss model. The kernel level is mixed in per
  // frame by synthesizeInto() because it can change at runtime.
  std::uint64_t h = 0x5ce7eca5eull;
  h = mixField(h, config_.chirp.startHz);
  h = mixField(h, config_.chirp.stopHz);
  h = mixField(h, config_.chirp.durationS);
  h = mixField(h, config_.chirp.sampleRateHz);
  h = rfp::common::splitmix64(
      h ^ static_cast<std::uint64_t>(config_.numAntennas));
  h = mixField(h, config_.spacing());
  h = mixField(h, config_.position.x);
  h = mixField(h, config_.position.y);
  h = mixField(h, config_.arrayAxis.x);
  h = mixField(h, config_.arrayAxis.y);
  h = mixField(h, config_.pathLossRefM);
  h = mixField(h, config_.pathLossExponent);
  configHash_ = h;

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
  synthesizeInto(frame, scatterers, timestampS, noiseSeed, chirpIndex,
                 /*memo=*/nullptr);
  return frame;
}

void Frontend::synthesizeInto(Frame& frame,
                              std::span<const env::PointScatterer> scatterers,
                              double timestampS, std::uint64_t noiseSeed,
                              std::uint64_t chirpIndex,
                              ToneMemo* memo) const {
  const std::size_t numSamples = config_.chirp.samplesPerChirp();
  const std::size_t numAntennas =
      static_cast<std::size_t>(config_.numAntennas);
  const Vec2 txPos = config_.position;  // TX colocated with element 0

  frame.timestampS = timestampS;
  frame.samples.resize(numAntennas);
  for (auto& row : frame.samples) row.assign(numSamples, Complex{});

  // The tone kernels run at the cpuid-selected level (DESIGN.md Sec. 13),
  // resolved once per frame; the memo is valid under this level only.
  const rfp::common::simd::KernelLevel level =
      rfp::common::simd::activeKernelLevel();
  const detail::ToneSetupFn setup = detail::toneSetupForLevel(level);
  const detail::ToneAccumChainsFn accumChains =
      detail::toneAccumChainsForLevel(level);

  // Resolve pass, in list order: each scatterer's chains go to column
  // `count` of the [antenna][scatterer] array, so every antenna row reads
  // its chains contiguously in list order. A memo hit copies them there
  // (the frame keeps its own copy because a later scatterer may overwrite
  // the slot); a miss is listed for the setup call below. A scatterer
  // whose amplitude after path loss is not positive (zero, negative or
  // NaN) takes no column: a zero tone adds nothing, and a phasor's
  // magnitude must be neither negative nor NaN.
  const std::size_t stride = scatterers.size();
  std::vector<detail::ToneChain> ownChains;
  detail::ToneMisses ownMisses;
  std::vector<detail::ToneChain>& chains =
      memo != nullptr ? memo->frameChains() : ownChains;
  detail::ToneMisses& misses =
      memo != nullptr ? memo->frameMisses() : ownMisses;
  chains.resize(numAntennas * stride);
  misses.reset(stride);
  if (memo != nullptr) {
    memo->beginFrame(rfp::common::splitmix64(
                         configHash_ ^ static_cast<std::uint64_t>(level)),
                     numAntennas);
  }
  std::size_t count = 0;
  for (const env::PointScatterer& s : scatterers) {
    bool nonzero = false;
    if (memo != nullptr &&
        memo->lookup(s, chains.data() + count, stride, nonzero)) {
      count += nonzero ? 1 : 0;
      continue;
    }
    const double dTx = (s.position - txPos).norm() + s.radialOffsetM;
    const double amp = s.amplitude * pathAmplitude(dTx);
    nonzero = amp > 0.0;
    if (nonzero) misses.push(s, amp, dTx, count);
    if (memo != nullptr) memo->pend(nonzero, count);
    count += nonzero ? 1 : 0;
  }

  // One setup call builds every miss's chains, which the memo then keeps.
  setup(geometry_, misses, chains.data(), stride);
  if (memo != nullptr) memo->storePending(chains.data(), stride);

  // Each antenna adds its chains in list order in one kernel call, then
  // its own noise stream.
  for (std::size_t k = 0; k < numAntennas; ++k) {
    std::vector<Complex>& dst = frame.samples[k];
    accumChains(dst.data(), numSamples, chains.data() + k * stride, count);
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
