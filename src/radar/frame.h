#pragma once

/// \file frame.h
/// One radar frame: the complex beat signal captured on every antenna for a
/// single chirp (the paper calls the 7-beat matrix "a frame", Sec. 9.1).

#include <complex>
#include <stdexcept>
#include <vector>

namespace rfp::radar {

using Complex = std::complex<double>;

/// Beat-signal samples for one chirp across all antennas.
struct Frame {
  /// samples[k][n] = beat sample n on antenna k.
  std::vector<std::vector<Complex>> samples;
  double timestampS = 0.0;

  std::size_t numAntennas() const { return samples.size(); }
  /// Antenna 0's sample count; see checkedSamplesPerChirp().
  std::size_t samplesPerChirp() const {
    return samples.empty() ? 0 : samples.front().size();
  }

  /// samplesPerChirp() after checking that every antenna holds that many
  /// samples. Throws std::invalid_argument on a ragged frame. Every entry
  /// point that sizes per-antenna work by antenna 0 checks through here.
  std::size_t checkedSamplesPerChirp() const {
    const std::size_t n = samplesPerChirp();
    for (const std::vector<Complex>& antenna : samples) {
      if (antenna.size() != n) {
        throw std::invalid_argument(
            "Frame: antennas hold different sample counts");
      }
    }
    return n;
  }

  /// Element-wise difference (this - other); the paper's background
  /// subtraction subtracts successive frames. Throws on shape mismatch.
  Frame operator-(const Frame& other) const {
    if (numAntennas() != other.numAntennas() ||
        checkedSamplesPerChirp() != other.checkedSamplesPerChirp()) {
      throw std::invalid_argument("Frame subtraction: shape mismatch");
    }
    Frame out = *this;
    for (std::size_t k = 0; k < samples.size(); ++k) {
      for (std::size_t n = 0; n < samples[k].size(); ++n) {
        out.samples[k][n] -= other.samples[k][n];
      }
    }
    return out;
  }
};

}  // namespace rfp::radar
