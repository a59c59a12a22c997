#include "radar/frontend.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/constants.h"
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
  const double dt = 1.0 / config_.chirp.sampleRateHz;
  const double sl = config_.chirp.slope();
  const double f0 = config_.chirp.startHz;
  const double twoPi = 2.0 * rfp::common::pi();
  const Vec2 txPos = config_.position;  // TX colocated with element 0

  frame.timestampS = timestampS;
  frame.samples.resize(numAntennas);
  for (auto& row : frame.samples) row.assign(numSamples, Complex{});

  // The tone kernels run at the cpuid-selected level (DESIGN.md Sec. 13),
  // resolved once per frame; the memo is valid under this level only.
  const rfp::common::simd::KernelLevel level =
      rfp::common::simd::activeKernelLevel();
  const detail::ToneAccumChainsFn accumChains =
      detail::toneAccumChainsForLevel(level);

  // Serial pass: each scatterer's chain start per antenna, from the memo
  // or computed, goes to column `count` of the [antenna][scatterer]
  // array, so every antenna row reads its chains contiguously in list
  // order. The frame keeps its own copy because a later scatterer may
  // overwrite the memo slot. A scatterer whose amplitude after path loss
  // is not positive (zero, negative or NaN) takes no column: a zero tone
  // adds nothing, and std::polar's magnitude must be neither negative nor
  // NaN.
  const std::size_t stride = scatterers.size();
  std::vector<detail::ToneChain> ownChains;
  std::vector<detail::ToneChain>& chains =
      memo != nullptr ? memo->frameChains() : ownChains;
  chains.resize(numAntennas * stride);
  if (memo != nullptr) {
    memo->beginFrame(rfp::common::splitmix64(
                         configHash_ ^ static_cast<std::uint64_t>(level)),
                     numAntennas);
  }
  std::size_t count = 0;
  for (const env::PointScatterer& s : scatterers) {
    detail::ToneChain* column = chains.data() + count;
    bool nonzero = false;
    if (memo != nullptr && memo->lookup(s, column, stride, nonzero)) {
      count += nonzero ? 1 : 0;
      continue;
    }
    const double dTx = (s.position - txPos).norm() + s.radialOffsetM;
    const double amp = s.amplitude * pathAmplitude(dTx);
    nonzero = amp > 0.0;
    for (std::size_t k = 0; nonzero && k < numAntennas; ++k) {
      const Vec2 rxPos = config_.antennaPosition(static_cast<int>(k));
      const double dRx = (s.position - rxPos).norm() + s.radialOffsetM;
      const double tau = (dTx + dRx) / rfp::common::kSpeedOfLight;
      const double beatHz = sl * tau + s.beatFreqOffsetHz;
      const double basePhase = twoPi * f0 * tau + s.phaseOffsetRad;
      // The tone is phasor * rot^n: a per-sample rotation instead of
      // numSamples sin/cos calls per scatterer-antenna pair.
      column[k * stride] =
          detail::toneChain(level, std::polar(amp, basePhase),
                            std::polar(1.0, twoPi * beatHz * dt));
    }
    if (memo != nullptr) memo->fill(nonzero, column, stride);
    count += nonzero ? 1 : 0;
  }

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
