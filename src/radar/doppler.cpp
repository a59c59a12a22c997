#include "radar/doppler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/fft.h"
#include "signal/window.h"

namespace rfp::radar {

std::pair<std::size_t, std::size_t> RangeDopplerMap::argmax() const {
  if (power.empty()) {
    throw std::logic_error("RangeDopplerMap::argmax: empty map");
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < power.size(); ++i) {
    if (power[i] > power[best]) best = i;
  }
  return {best / velocitiesMps.size(), best % velocitiesMps.size()};
}

double RangeDopplerMap::maxPower() const {
  double m = 0.0;
  for (double p : power) m = std::max(m, p);
  return m;
}

std::size_t RangeDopplerMap::zeroVelocityColumn() const {
  std::size_t best = 0;
  for (std::size_t v = 1; v < velocitiesMps.size(); ++v) {
    if (std::fabs(velocitiesMps[v]) < std::fabs(velocitiesMps[best])) {
      best = v;
    }
  }
  return best;
}

void RangeDopplerMap::suppressZeroDoppler(std::size_t guard) {
  const std::size_t zero = zeroVelocityColumn();
  const std::size_t lo = zero > guard ? zero - guard : 0;
  const std::size_t hi = std::min(zero + guard, numVelocities() - 1);
  for (std::size_t r = 0; r < numRanges(); ++r) {
    for (std::size_t v = lo; v <= hi; ++v) at(r, v) = 0.0;
  }
}

RangeDopplerMap computeRangeDoppler(const std::vector<Frame>& burst,
                                    const RadarConfig& config,
                                    const DopplerOptions& options) {
  if (burst.size() < 4) {
    throw std::invalid_argument("computeRangeDoppler: need >= 4 chirps");
  }
  const double pri = burst[1].timestampS - burst[0].timestampS;
  if (pri <= 0.0) {
    throw std::invalid_argument("computeRangeDoppler: bad chirp timing");
  }
  const std::size_t samples = burst.front().checkedSamplesPerChirp();
  const auto antenna = static_cast<std::size_t>(options.antenna);
  for (const Frame& f : burst) {
    if (f.checkedSamplesPerChirp() != samples || antenna >= f.numAntennas()) {
      throw std::invalid_argument("computeRangeDoppler: frame shape mismatch");
    }
  }

  // Per-chirp range FFT.
  const std::size_t rangeFft = rfp::signal::nextPowerOfTwo(2 * samples);
  const auto window =
      rfp::signal::makeWindow(rfp::signal::WindowType::kHann, samples);
  const double freqPerBin =
      config.chirp.sampleRateHz / static_cast<double>(rangeFft);
  const double rangePerBin = config.chirp.distanceAt(freqPerBin);
  const auto firstBin = static_cast<std::size_t>(
      std::ceil(options.minRangeM / rangePerBin));
  const auto lastBin = std::min<std::size_t>(
      rangeFft / 2,
      static_cast<std::size_t>(std::floor(options.maxRangeM / rangePerBin)) +
          1);
  if (firstBin >= lastBin) {
    throw std::invalid_argument("computeRangeDoppler: empty range window");
  }
  const std::size_t numRanges = lastBin - firstBin;

  std::vector<std::vector<Complex>> rangeSpectra;  // [chirp][rangeBin]
  rangeSpectra.reserve(burst.size());
  for (const Frame& f : burst) {
    std::vector<Complex> windowed = f.samples[antenna];
    rfp::signal::applyWindow(windowed, window);
    auto spec = rfp::signal::fft(windowed, rangeFft);
    rangeSpectra.emplace_back(spec.begin() + firstBin,
                              spec.begin() + lastBin);
  }

  // Slow-time FFT per range bin, fftshifted so zero Doppler is centered.
  const std::size_t dopplerFft =
      options.fftSize != 0
          ? options.fftSize
          : rfp::signal::nextPowerOfTwo(burst.size());
  if (dopplerFft < burst.size()) {
    throw std::invalid_argument("computeRangeDoppler: fftSize too small");
  }
  const auto slowWindow = rfp::signal::makeWindow(
      rfp::signal::WindowType::kHann, burst.size());

  RangeDopplerMap map;
  map.rangesM.resize(numRanges);
  for (std::size_t r = 0; r < numRanges; ++r) {
    map.rangesM[r] = rangePerBin * static_cast<double>(firstBin + r);
  }
  map.velocitiesMps.resize(dopplerFft);
  const double prf = 1.0 / pri;
  const double lambda = config.chirp.wavelength();
  for (std::size_t v = 0; v < dopplerFft; ++v) {
    // fftshift: column 0 = -PRF/2.
    const double dopplerHz =
        (static_cast<double>(v) - static_cast<double>(dopplerFft) / 2.0) *
        prf / static_cast<double>(dopplerFft);
    // Positive Doppler = increasing phase = growing range in our synthesis
    // convention; velocity = dopplerHz * lambda / 2 (radial, receding > 0).
    map.velocitiesMps[v] = dopplerHz * lambda / 2.0;
  }
  map.power.assign(numRanges * dopplerFft, 0.0);

  std::vector<Complex> slow(dopplerFft);
  for (std::size_t r = 0; r < numRanges; ++r) {
    std::fill(slow.begin(), slow.end(), Complex{});
    for (std::size_t m = 0; m < burst.size(); ++m) {
      slow[m] = rangeSpectra[m][r] * slowWindow[m];
    }
    auto spec = slow;
    rfp::signal::fftInPlace(spec);
    for (std::size_t v = 0; v < dopplerFft; ++v) {
      // Undo fftshift: spectrum bin k corresponds to output column
      // (k + N/2) mod N.
      const std::size_t col = (v + dopplerFft / 2) % dopplerFft;
      map.at(r, col) = std::norm(spec[v]);
    }
  }
  return map;
}

}  // namespace rfp::radar
