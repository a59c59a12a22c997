#include "core/eavesdropper.h"

namespace rfp::core {

EavesdropperRadar::EavesdropperRadar(SensingConfig config)
    : config_(config),
      frontend_(config.radar),
      processor_(config.radar, config.processor),
      detector_(config.detector),
      tracker_(config.tracker) {}

std::optional<Observation> EavesdropperRadar::observe(
    std::span<const env::PointScatterer> scatterers, double timestampS,
    rfp::common::Rng& rng) {
  return observeFrame(senseRaw(scatterers, timestampS, rng), timestampS);
}

std::optional<Observation> EavesdropperRadar::observeFrame(
    radar::Frame frame, double timestampS) {
  const radar::Frame* diff = processor_.backgroundDiff(frame);
  if (diff == nullptr) return std::nullopt;

  Observation obs;
  obs.timestampS = timestampS;
  processor_.processInto(*diff, obs.map, processorScratch_);
  observeDetections(obs.map, timestampS, obs.detections);
  return obs;
}

void EavesdropperRadar::observeDetections(
    const radar::RangeAngleMap& map, double timestampS,
    std::vector<tracking::Detection>& detections) {
  detector_.detectInto(map, processor_, detectScratch_, detections);
  tracker_.update(detections, timestampS);
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
                           /*chirpIndex=*/0, &toneMemo_);
}

void EavesdropperRadar::reset() {
  processor_.resetBackground();
  tracker_ = tracking::MultiTargetTracker(config_.tracker);
}

}  // namespace rfp::core
