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
};

}  // namespace rfp::radar
