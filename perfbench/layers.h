#pragma once

/// \file layers.h
/// Per-layer probes of the traced run. Each one times calls into a layer's
/// public functions from outside the layer.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "report.h"
#include "service/scenario_job.h"

namespace perfbench {

struct FrameReplay {
  /// Per home, the metrics of each epoch of \p epochFrames frames, as
  /// ScenarioJob::runEpoch reports them.
  std::vector<std::vector<rfp::service::EpochMetrics>> streams;
  std::size_t frames = 0;
  double layerUs = 0.0;  ///< time inside the timed layer calls, all frames
};

/// Replays the spoofing frame loop of one scenario job per job seed (the
/// construction and RNG order of service::makeSpoofScenarioJob, and the
/// eavesdropper's 1.2 m detection follower), calling each layer in turn
/// under a span: reflector injection, scene build, radar synthesis,
/// background subtraction, range-angle processing, peak detection and
/// tracking. Reports the per-layer medians and counts.
FrameReplay replayFrames(const char* scenarioText,
                         const std::vector<std::uint64_t>& jobSeeds,
                         std::size_t epochFrames, Tracer& tracer,
                         Report& report);

/// Standalone signal-layer calls on frame-shaped buffers of the scenario's
/// radar: AWGN on antennas x samples, range FFT on antennas x FFT length.
void probeSignal(const char* scenarioText, Tracer& tracer, Report& report);

/// ThreadPool::global().parallelFor over 16 empty indices (full pool).
void probeParallelFor(Tracer& tracer, Report& report);

/// GAN-shaped (784 x 40) * (40 x 128) linalg::gemm at the full pool and at
/// one thread.
void probeGemm(std::uint64_t seed, Report& report);

}  // namespace perfbench
