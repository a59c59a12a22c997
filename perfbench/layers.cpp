#include "layers.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "common/constants.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/vec2.h"
#include "core/eavesdropper.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario_config.h"
#include "linalg/gemm.h"
#include "radar/processor.h"
#include "signal/fft.h"
#include "signal/noise.h"
#include "tracking/detection.h"
#include "tracking/tracker.h"
#include "trajectory/human_walk.h"

namespace perfbench {

using rfp::common::median;

namespace {

rfp::core::Scenario loadScenario(const char* text) {
  std::istringstream in(text);
  return rfp::core::loadScenario(in, "perfbench");
}

/// The frame layers, in call order; metric name = span name + "_us".
constexpr const char* kFrameLayers[] = {
    "reflector.inject", "env.scene",       "radar.synth",   "radar.bgsub",
    "radar.process",    "tracking.detect", "tracking.track"};

using rfp::tracking::Detection;

const Detection* strongest(const std::vector<Detection>& detections) {
  const Detection* best = nullptr;
  for (const Detection& d : detections) {
    if (best == nullptr || d.power > best->power) best = &d;
  }
  return best;
}

/// The eavesdropper's single-target follower (core/harness.cpp): the
/// strongest peak until acquired, then the nearest peak within the gate,
/// re-acquiring on the strongest after more than 12 misses.
class Follower {
 public:
  const Detection* select(const std::vector<Detection>& detections) {
    const Detection* chosen = nullptr;
    if (acquired_) {
      double best = kGateM;
      for (const Detection& d : detections) {
        const double dist = rfp::common::distance(d.world, last_);
        if (dist < best) {
          best = dist;
          chosen = &d;
        }
      }
    } else {
      chosen = strongest(detections);
    }
    if (chosen == nullptr) {
      if (++missStreak_ > 12) {
        chosen = strongest(detections);
        missStreak_ = 0;
      }
    } else {
      missStreak_ = 0;
    }
    if (chosen != nullptr) {
      last_ = chosen->world;
      acquired_ = true;
    }
    return chosen;
  }

 private:
  static constexpr double kGateM = 1.2;
  int missStreak_ = 0;
  bool acquired_ = false;
  rfp::common::Vec2 last_{};
};

}  // namespace

FrameReplay replayFrames(const char* scenarioText,
                         const std::vector<std::uint64_t>& jobSeeds,
                         std::size_t epochFrames, Tracer& tracer,
                         Report& report) {
  namespace core = rfp::core;
  FrameReplay out;
  double scatterers = 0.0;
  double detectionsSeen = 0.0;
  std::size_t processed = 0;
  std::size_t mapCells = 0;
  const std::size_t firstSpan = tracer.spans().size();

  for (std::size_t home = 0; home < jobSeeds.size(); ++home) {
    // Scenario job construction, in makeSpoofScenarioJob's RNG order.
    const core::Scenario scenario = loadScenario(scenarioText);
    rfp::common::Rng rng(jobSeeds[home]);
    rfp::trajectory::HumanWalkModel model;
    rfp::trajectory::Trace trace;
    do {
      trace = rfp::trajectory::centered(model.sample(rng));
    } while (rfp::trajectory::motionRange(trace) > 3.5);
    core::RfProtectSystem system(scenario.makeController());
    const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
    const double start = 2.0 * dt;
    const int ghostId = system.addGhostAuto(trace, start, scenario.plan, rng);

    rfp::env::Environment environment(scenario.plan);
    core::EavesdropperRadar radar(scenario.sensing);
    rfp::radar::Processor processor(scenario.sensing.radar,
                                    scenario.sensing.processor);
    const rfp::tracking::PeakDetector detector(scenario.sensing.detector);
    rfp::tracking::MultiTargetTracker tracker(scenario.sensing.tracker);
    Follower follower;
    std::vector<rfp::env::PointScatterer> scene;
    rfp::radar::Frame frame;
    rfp::radar::RangeAngleMap map;
    rfp::radar::ProcessorScratch processorScratch;
    rfp::tracking::DetectScratch detectScratch;
    std::vector<Detection> detections;

    std::vector<rfp::service::EpochMetrics> stream;
    const double duration = start + rfp::common::kTraceDurationS + 2.0 * dt;
    std::size_t index = 0;
    for (double cursor = 0.0; cursor <= duration; cursor += dt, ++index) {
      if (index % epochFrames == 0) {
        stream.emplace_back().epoch = index / epochFrames;
      }
      rfp::service::EpochMetrics& epoch = stream.back();
      ++epoch.framesSimulated;
      const double t = cursor;
      const int f = tracer.begin("core.frame", home);
      const auto injected = tracer.time("reflector.inject", home, f,
                                        [&] { return system.injectAt(t); });
      tracer.time("env.scene", home, f, [&] {
        core::combineScatterersInto(scene, environment, t, rng,
                                    scenario.snapshot, injected);
      });
      tracer.time("radar.synth", home, f,
                  [&] { radar.senseRawInto(frame, scene, t, rng); });
      const rfp::radar::Frame* diff = tracer.time(
          "radar.bgsub", home, f, [&] { return processor.backgroundDiff(frame); });
      if (diff != nullptr) {
        tracer.time("radar.process", home, f, [&] {
          processor.processInto(*diff, map, processorScratch);
        });
        tracer.time("tracking.detect", home, f, [&] {
          detector.detectInto(map, processor, detectScratch, detections);
        });
        tracer.time("tracking.track", home, f,
                    [&] { tracker.update(detections, t); });
        detectionsSeen += static_cast<double>(detections.size());
        mapCells = map.power.size();
        ++processed;
      }
      tracer.end(f);
      scatterers += static_cast<double>(scene.size());
      ++out.frames;

      // The error metrics runEpoch reports for this frame.
      const auto intended = system.intendedPosition(ghostId, t);
      if (diff == nullptr || !intended.has_value()) continue;
      ++epoch.framesTotal;
      const Detection* det = follower.select(detections);
      if (det == nullptr) continue;
      ++epoch.framesDetected;
      const auto polar = processor.toRadarPolar(*intended);
      epoch.sumDistanceErrorM += std::fabs(det->rangeM - polar.range);
      epoch.sumAngleErrorDeg += rfp::common::rad2deg(
          rfp::common::angularDistance(det->angleRad, polar.angle));
    }
    out.streams.push_back(std::move(stream));
  }

  const auto& spans = tracer.spans();
  for (std::size_t i = firstSpan; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) out.layerUs += tracer.durationUs(spans[i]);
  }
  for (const char* layer : kFrameLayers) {
    const auto us = tracer.durationsUs(layer);
    report.metric(std::string(layer) + "_us", median(us), "us", us.size());
  }
  const auto frames = static_cast<double>(out.frames);
  report.metric("core.frames", frames, "count", jobSeeds.size());
  report.metric("env.scatterers_per_frame", scatterers / frames, "count",
                out.frames);
  report.metric("tracking.detections_per_frame",
                detectionsSeen / static_cast<double>(processed), "count",
                processed);
  report.metric("radar.map_cells", static_cast<double>(mapCells), "count", 1);
  return out;
}

void probeSignal(const char* scenarioText, Tracer& tracer, Report& report) {
  const rfp::radar::RadarConfig radar = loadScenario(scenarioText).sensing.radar;
  const auto antennas = static_cast<std::size_t>(radar.numAntennas);
  const std::size_t samples = radar.chirp.samplesPerChirp();
  // ProcessorOptions' default FFT length: zero-padded to 2x the samples.
  const std::size_t fftLength = rfp::signal::nextPowerOfTwo(2 * samples);
  constexpr std::size_t kFrames = 2000;

  std::vector<std::vector<std::complex<double>>> frame(
      antennas, std::vector<std::complex<double>>(samples));
  std::vector<std::vector<rfp::signal::Complex>> spectra(
      antennas, std::vector<rfp::signal::Complex>(fftLength));
  for (std::size_t chirp = 0; chirp < kFrames; ++chirp) {
    tracer.time("signal.awgn", chirp, -1, [&] {
      for (std::size_t k = 0; k < antennas; ++k) {
        rfp::signal::addAwgn(frame[k], radar.noisePower, 0x5eed, chirp, k);
      }
    });
    for (std::size_t k = 0; k < antennas; ++k) {
      std::fill(spectra[k].begin(), spectra[k].end(), rfp::signal::Complex{});
      std::copy(frame[k].begin(), frame[k].end(), spectra[k].begin());
    }
    tracer.time("signal.range_fft", chirp, -1, [&] {
      for (auto& s : spectra) rfp::signal::fftInPlace(s);
    });
  }
  const auto awgn = tracer.durationsUs("signal.awgn");
  const auto fft = tracer.durationsUs("signal.range_fft");
  report.metric("signal.awgn_us", median(awgn), "us", awgn.size());
  report.metric("signal.range_fft_us", median(fft), "us", fft.size());
}

void probeParallelFor(Tracer& tracer, Report& report) {
  useFullPool();
  constexpr std::size_t kCalls = 4000;
  for (std::size_t i = 0; i < kCalls; ++i) {
    tracer.time("common.parallel_for", i, -1, [] {
      rfp::common::ThreadPool::global().parallelFor(0, 16, [](std::size_t) {});
    });
  }
  const auto us = tracer.durationsUs("common.parallel_for");
  report.metric("common.parallel_for_us", median(us), "us", us.size());
}

void probeGemm(std::uint64_t seed, Report& report) {
  using rfp::linalg::Matrix;
  rfp::common::Rng rng(inputSeed(seed, kStreamGemm));
  Matrix a(784, 40), b(40, 128), c;
  for (double& v : a.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : b.data()) v = rng.uniform(-1.0, 1.0);
  const double flops = 2.0 * 784.0 * 40.0 * 128.0;
  constexpr int kChunks = 9;
  constexpr int kCallsPerChunk = 40;

  const auto gflops = [&] {
    rfp::linalg::gemm(c, a, b);  // sizes C
    std::vector<double> rates;
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      const auto start = Clock::now();
      for (int i = 0; i < kCallsPerChunk; ++i) rfp::linalg::gemm(c, a, b);
      rates.push_back(flops * kCallsPerChunk / secondsSince(start) / 1.0e9);
    }
    return median(rates);
  };
  useFullPool();
  report.metric("linalg.gemm_gflops", gflops(), "GFLOP/s", kChunks);
  useOneThread();
  report.metric("linalg.gemm_gflops_1t", gflops(), "GFLOP/s", kChunks);
  useFullPool();
}

}  // namespace perfbench
