#pragma once

/// \file frontend.h
/// Simulated FMCW front end: turns a list of point scatterers into the
/// complex beat signal each receive antenna would capture.
///
/// Physics. The radar transmits a chirp f(t) = f0 + sl*t. A reflection with
/// round-trip delay tau mixes down to a tone exp(j*2*pi*(sl*tau*t + f0*tau))
/// (paper Sec. 3). We use exact per-antenna delays
/// tau_k = (|s - p_tx| + |s - p_k|)/C, which yields both the beat frequency
/// (range) and the across-array phase gradient (angle) without assuming the
/// far field. RF-Protect's switching adds `beatFreqOffsetHz` to the tone and
/// its phase shifter adds `phaseOffsetRad` (paper Eq. 3 / Sec. 5.3).
///
/// Determinism (DESIGN.md Sec. 8). A frame runs on the calling thread:
/// each scatterer's per-antenna tone chains are resolved first (memo
/// hits copied, then one tone setup call for every miss), then each
/// antenna adds its scatterer tones in list order into its own sample
/// buffer. Receiver noise comes from counter-based streams keyed
/// (noiseSeed, chirpIndex, antenna, sample) rather than a shared
/// sequential engine -- the Rng overload merely draws one 64-bit
/// per-chirp seed and delegates.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "env/scatterer.h"
#include "radar/config.h"
#include "radar/frame.h"
#include "radar/simd_kernels.h"

namespace rfp::radar {

class ToneMemo;

/// Beat-signal synthesizer for a configured radar.
///
/// Thread-safety: const -- synthesize() may be called concurrently from
/// different threads, each with its own frame and memo.
class Frontend {
 public:
  explicit Frontend(RadarConfig config);

  const RadarConfig& config() const { return config_; }

  /// What the tone setup kernels read of config(): element positions and
  /// the chirp's slope, start frequency and sample interval.
  const detail::ToneGeometry& toneGeometry() const { return geometry_; }

  /// Synthesizes the frame observed at time \p timestampS (seconds) for
  /// the given scatterer snapshot. Adds AWGN at the configured power,
  /// seeded by one 64-bit draw from \p rng (the only engine consumption;
  /// noise samples themselves come from counter-based streams, see the
  /// deterministic overload). When config().noisePower == 0 the engine is
  /// not touched at all.
  Frame synthesize(std::span<const env::PointScatterer> scatterers,
                   double timestampS, rfp::common::Rng& rng) const;

  /// Fully deterministic variant: noise sample n of antenna k is a pure
  /// function of (\p noiseSeed, \p chirpIndex, k, n). Two calls with equal
  /// arguments return bit-identical frames; callers
  /// iterating a chirp sequence should pass the running chirp index so
  /// successive frames draw independent noise.
  Frame synthesize(std::span<const env::PointScatterer> scatterers,
                   double timestampS, std::uint64_t noiseSeed,
                   std::uint64_t chirpIndex) const;

  /// Deterministic synthesis into a caller-owned buffer: \p frame is
  /// resized (antenna rows reuse their capacity) and overwritten. With a
  /// non-null \p memo each scatterer's per-antenna tone chains are
  /// memoized across frames and a steady-state caller performs no
  /// allocation; without one every chain is computed. The frame is
  /// bit-identical either way (tone_memo.h). A memo must not be shared by
  /// concurrent calls.
  void synthesizeInto(Frame& frame,
                      std::span<const env::PointScatterer> scatterers,
                      double timestampS, std::uint64_t noiseSeed,
                      std::uint64_t chirpIndex,
                      ToneMemo* memo = nullptr) const;

  /// Amplitude observed from a scatterer of unit reflectivity at distance
  /// \p d (radar-equation path loss, normalized at config.pathLossRefM).
  double pathAmplitude(double distanceM) const;

 private:
  RadarConfig config_;
  std::uint64_t configHash_ = 0;  ///< tone-math fields, hashed once
  detail::ToneGeometry geometry_;  ///< what tone setup reads of config_
};

/// Models ADC saturation: clips every I/Q sample of \p frame to
/// +-\p clipLevel per component (a rail-to-rail converter limits I and Q
/// independently). Used by the fault-injection layer to corrupt frames
/// during interference episodes. Throws std::invalid_argument when
/// \p clipLevel is not positive and finite.
void applyAdcSaturation(Frame& frame, double clipLevel);

}  // namespace rfp::radar
