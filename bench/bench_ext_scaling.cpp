/// \file bench_ext_scaling.cpp
/// Scaling benchmark for the parallel simulation engine (DESIGN.md Sec. 8):
/// frames/sec of the fig9 office-localization pipeline (environment
/// snapshot -> beat-signal synthesis -> range FFT + Eq. 2 beamforming ->
/// detection/tracking) at 1/2/4/8 pool threads, plus the determinism
/// contract's acceptance check -- serial and parallel runs must produce
/// bit-identical frames and range-angle maps.
///
/// Emits `BENCH_scaling.json` (methodology in EXPERIMENTS.md). Wall time
/// uses bench_util's double-microsecond WallTimer: per-frame times sit
/// well under 10 ms, so integer-millisecond truncation would erase the
/// very speedups this benchmark exists to show. The JSON records
/// hardware_concurrency because oversubscribed thread counts (threads >
/// cores) cannot speed up further -- interpret speedups against it.
///
/// `--smoke` is the CI variant: few frames, thread counts {1, 2}, and a
/// hard failure (non-zero exit) if the bit-equality check breaks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/eavesdropper.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "env/environment.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;

/// One timed/checked run of the fig9 pipeline at the current global pool
/// size. Identical seeds per call: every per-frame random draw happens on
/// the calling thread (snapshot jitter) or is counter-based (receiver
/// noise), so the produced frames/maps depend only on the seed -- never on
/// the thread count.
struct RunResult {
  std::vector<radar::Frame> frames;
  std::vector<radar::RangeAngleMap> maps;
  double framesPerSec = 0.0;
  double usPerFrame = 0.0;
};

RunResult runPipeline(std::size_t numFrames, bool keepOutputs) {
  const core::Scenario scenario = core::makeOfficeScenario();
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath(
      trajectory::scriptedLPath({2.5, 2.5}, 2.5, 1.0, 0.05), 0.05));
  core::EavesdropperRadar radar(scenario.sensing);
  common::Rng rng(1234);

  RunResult result;
  if (keepOutputs) {
    result.frames.reserve(numFrames);
    result.maps.reserve(numFrames);
  }

  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  bench::WallTimer timer;
  for (std::size_t i = 0; i < numFrames; ++i) {
    const double t = static_cast<double>(i) * dt;
    const auto scatterers =
        core::combineScatterers(environment, t, rng, scenario.snapshot, {});
    radar::Frame frame = radar.senseRaw(scatterers, t, rng);
    radar::RangeAngleMap map = radar.mapOf(frame);
    benchmark::DoNotOptimize(map.maxPower());
    if (keepOutputs) {
      result.frames.push_back(std::move(frame));
      result.maps.push_back(std::move(map));
    }
  }
  const double elapsedUs = timer.elapsedUs();
  result.usPerFrame = elapsedUs / static_cast<double>(numFrames);
  result.framesPerSec = 1.0e6 / result.usPerFrame;
  return result;
}

bool framesBitIdentical(const radar::Frame& a, const radar::Frame& b) {
  if (a.numAntennas() != b.numAntennas() ||
      a.samplesPerChirp() != b.samplesPerChirp()) {
    return false;
  }
  for (std::size_t k = 0; k < a.numAntennas(); ++k) {
    if (std::memcmp(a.samples[k].data(), b.samples[k].data(),
                    a.samples[k].size() * sizeof(radar::Complex)) != 0) {
      return false;
    }
  }
  return true;
}

bool mapsBitIdentical(const radar::RangeAngleMap& a,
                      const radar::RangeAngleMap& b) {
  return a.power.size() == b.power.size() &&
         std::memcmp(a.power.data(), b.power.data(),
                     a.power.size() * sizeof(double)) == 0;
}

int runScaling(bool smoke) {
  const std::vector<std::size_t> threadCounts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t timedFrames = smoke ? 8 : 48;
  const std::size_t checkedFrames = smoke ? 6 : 12;

  bench::printHeader(
      "Scaling -- fig9 pipeline frames/sec vs pool threads (+ bit-equality)");
  std::printf("  hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  // Reference outputs and timings per thread count. The reference run (1
  // thread) doubles as warm-up for the steering/twiddle caches.
  common::ThreadPool::setGlobalThreads(1);
  const RunResult reference = runPipeline(checkedFrames, /*keepOutputs=*/true);

  struct Row {
    std::size_t threads;
    double fps;
    double usPerFrame;
    bool bitExact;
  };
  std::vector<Row> rows;
  bool allExact = true;
  for (std::size_t threads : threadCounts) {
    common::ThreadPool::setGlobalThreads(threads);

    bool exact = true;
    const RunResult check = runPipeline(checkedFrames, /*keepOutputs=*/true);
    for (std::size_t i = 0; i < checkedFrames; ++i) {
      exact = exact && framesBitIdentical(reference.frames[i], check.frames[i]);
      exact = exact && mapsBitIdentical(reference.maps[i], check.maps[i]);
    }
    allExact = allExact && exact;

    runPipeline(timedFrames / 4 + 1, /*keepOutputs=*/false);  // warm-up
    const RunResult timed = runPipeline(timedFrames, /*keepOutputs=*/false);
    rows.push_back({threads, timed.framesPerSec, timed.usPerFrame, exact});
    std::printf(
        "  threads %zu : %8.1f frames/s  (%9.1f us/frame)  serial-equality %s\n",
        threads, timed.framesPerSec, timed.usPerFrame,
        exact ? "bit-exact" : "MISMATCH");
  }
  common::ThreadPool::setGlobalThreads(0);  // back to RFP_THREADS / hw

  double speedup4 = 0.0;
  for (const Row& r : rows) {
    if (r.threads == 4) speedup4 = r.fps / rows.front().fps;
  }
  if (speedup4 > 0.0) {
    std::printf("  speedup at 4 threads over 1: %.2fx\n", speedup4);
  }

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "scaling")
      .field("scenario", "fig9-office-localization")
      .field("smoke", smoke);
  bench::stampRunProvenance(json)
      .field("timed_frames", timedFrames)
      .field("checked_frames", checkedFrames)
      .beginArray("results");
  for (const Row& r : rows) {
    json.beginObject()
        .field("threads", r.threads)
        .field("frames_per_sec", r.fps)
        .field("us_per_frame", r.usPerFrame)
        .field("bit_exact", r.bitExact)
        .endObject();
  }
  json.endArray();
  // Smoke runs stop at 2 threads: there is no 4-thread measurement, so the
  // field is null rather than a misleading 0.000 "speedup".
  if (speedup4 > 0.0) {
    json.field("speedup_4_threads", speedup4);
  } else {
    json.nullField("speedup_4_threads");
  }
  json.field("serial_parallel_bit_exact", allExact).endObject();
  if (json.writeFile("BENCH_scaling.json")) {
    std::printf("  wrote BENCH_scaling.json\n");
  }

  if (!allExact) {
    std::fprintf(stderr,
                 "FAIL: parallel frames diverged from the serial reference\n");
    return 1;
  }
  return 0;
}

void BM_PipelineFrame(benchmark::State& state) {
  common::ThreadPool::setGlobalThreads(
      static_cast<std::size_t>(state.range(0)));
  const core::Scenario scenario = core::makeOfficeScenario();
  env::Environment environment(scenario.plan);
  environment.addHuman(env::TimedPath(
      trajectory::scriptedLPath({2.5, 2.5}, 2.5, 1.0, 0.05), 0.05));
  core::EavesdropperRadar radar(scenario.sensing);
  common::Rng rng(1);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.05;
    const auto scatterers =
        core::combineScatterers(environment, t, rng, scenario.snapshot, {});
    benchmark::DoNotOptimize(radar.mapOf(radar.senseRaw(scatterers, t, rng)));
  }
  state.SetItemsProcessed(state.iterations());
  common::ThreadPool::setGlobalThreads(0);
}
BENCHMARK(BM_PipelineFrame)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runScaling(smoke);
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
