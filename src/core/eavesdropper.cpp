#include "core/eavesdropper.h"

namespace rfp::core {

EavesdropperRadar::EavesdropperRadar(SensingConfig config)
    : config_(config),
      frontend_(config.radar),
      processor_(config.radar, config.processor),
      detector_(config.detector) {}

std::optional<Observation> EavesdropperRadar::observe(
    std::span<const env::PointScatterer> scatterers, double timestampS,
    rfp::common::Rng& rng) {
  const radar::Frame frame = senseRaw(scatterers, timestampS, rng);
  Observation obs;
  if (processFrame(frame, obs.map, obs.detections) == nullptr) {
    return std::nullopt;
  }
  obs.timestampS = timestampS;
  return obs;
}

const radar::Frame* EavesdropperRadar::processFrame(
    const radar::Frame& frame, radar::RangeAngleMap& map,
    std::vector<tracking::Detection>& detections) {
  const radar::Frame* diff = processor_.backgroundDiff(frame);
  if (diff == nullptr) return nullptr;
  processor_.processInto(*diff, map, processorScratch_);
  detector_.detectInto(map, processor_, detectScratch_, detections);
  return diff;
}

radar::Frame EavesdropperRadar::senseRaw(
    std::span<const env::PointScatterer> scatterers, double timestampS,
    rfp::common::Rng& rng) {
  radar::Frame frame;
  senseRawInto(frame, scatterers, timestampS, rng);
  return frame;
}

void EavesdropperRadar::senseRawInto(
    radar::Frame& frame, std::span<const env::PointScatterer> scatterers,
    double timestampS, rfp::common::Rng& rng) {
  // Same single engine draw as the historical Frontend::synthesize(rng)
  // overload: one 64-bit seed per chirp when noise is on.
  const std::uint64_t noiseSeed =
      config_.radar.noisePower > 0.0 ? rng.engine()() : 0;
  frontend_.synthesizeInto(frame, scatterers, timestampS, noiseSeed,
                           /*chirpIndex=*/0, synthScratch_);
}

void EavesdropperRadar::reset() { processor_.resetBackground(); }

}  // namespace rfp::core
