/// The FMCW front end's frames over real scenes: scatterers whose
/// amplitude after path loss is not positive add nothing; a scratch
/// reused frame after frame gives the frames a fresh one does, over office
/// (paper radar) and fleet-home (toy radar) scenes at every kernel level,
/// and the two FMA widths give equal frames; the eavesdropper's
/// steady-state frame, scene to detections, allocates nothing, at pool
/// sizes 1 and 4; and the epoch runner equals its frame loop written out,
/// through ADC-clip, gain-clamp and frame-drop fault frames.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"

#include "common/cpuid.h"
#include "common/thread_pool.h"
#include "core/eavesdropper.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "core/scenario_config.h"
#include "env/human.h"
#include "env/scatterer.h"
#include "fault/fault_schedule.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "tracking/detection.h"
#include "trajectory/human_walk.h"

namespace rfp {
namespace {

namespace simd = rfp::common::simd;

env::PointScatterer scattererAt(double x, double y) {
  env::PointScatterer s;
  s.position = {x, y};
  s.amplitude = 1.0;
  return s;
}

bool sameFrame(const radar::Frame& a, const radar::Frame& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t k = 0; k < a.samples.size(); ++k) {
    if (a.samples[k].size() != b.samples[k].size() ||
        std::memcmp(a.samples[k].data(), b.samples[k].data(),
                    a.samples[k].size() * sizeof(radar::Complex)) != 0) {
      return false;
    }
  }
  return true;
}

radar::RadarConfig smallRadar() {
  radar::RadarConfig cfg;
  cfg.chirp.sampleRateHz = 16000;  // 8 samples, a masked-tail-free row
  cfg.numAntennas = 3;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-6;
  return cfg;
}

// Scatterers whose amplitude after path loss is not positive -- zero,
// negative or NaN -- add nothing: the frame equals the frame of the list
// without them, through a reused scratch and a fresh one alike.
TEST(FrontendFrames, ZeroNegativeAndNaNAmplitudesAddNothing) {
  const radar::Frontend frontend(smallRadar());
  env::PointScatterer zero = scattererAt(3.0, 2.0);
  zero.amplitude = 0.0;
  env::PointScatterer negativeZero = scattererAt(3.5, 2.0);
  negativeZero.amplitude = -0.0;
  env::PointScatterer negative = scattererAt(6.0, 4.0);
  negative.amplitude = -0.5;
  env::PointScatterer nan = scattererAt(5.0, 3.0);
  nan.amplitude = std::numeric_limits<double>::quiet_NaN();
  const env::PointScatterer real1 = scattererAt(4.0, 3.0);
  const env::PointScatterer real2 = scattererAt(7.0, 2.5);

  const std::vector<env::PointScatterer> withSkipped{
      zero, real1, negative, nan, negativeZero, real2, zero};
  const std::vector<env::PointScatterer> withoutSkipped{real1, real2};
  radar::SynthScratch scratch;
  radar::Frame frame;
  for (std::uint64_t chirp = 0; chirp < 3; ++chirp) {
    const double t = 0.1 * static_cast<double>(chirp);
    frontend.synthesizeInto(frame, withSkipped, t, 5, chirp, scratch);
    EXPECT_EQ(scratch.tones.count, 2u);
    EXPECT_TRUE(
        sameFrame(frame, frontend.synthesize(withSkipped, t, 5, chirp)));
    EXPECT_TRUE(
        sameFrame(frame, frontend.synthesize(withoutSkipped, t, 5, chirp)));
  }
}

/// Cost-reduced deployment (the fleet bench's toy radar: 8 samples x 3
/// antennas) and the paper's office with clutter (500 x 7).
constexpr const char* kFleetScenario = R"(
room.name = fleet-home
radar.sample_rate = 16000
radar.antennas = 3
panel.count = 4
)";

constexpr const char* kOfficeScenario = R"(
room.name = office
room.width = 10
room.height = 6.6
room.wall_reflectivity = 0.45
clutter = 2.0 6.2 1.6
clutter = 4.5 6.2 1.8
clutter = 7.0 6.2 1.6
clutter = 3.0 2.0 0.6
clutter = 6.5 3.5 0.5
clutter = 8.5 1.5 0.6
multipath.loss = 0.65
)";

core::Scenario loadText(const char* text) {
  std::istringstream in(text);
  return core::loadScenario(in, "frontend-test");
}

/// One spoofing scenario's reflector, environment and rng, built in the
/// fleet job's order, so the scenes it yields are the ones a job sees.
/// With a \p schedule the reflector runs under its faults.
struct Home {
  explicit Home(
      const char* text,
      std::shared_ptr<const fault::FaultSchedule> schedule = nullptr)
      : scenario(loadText(text)), rng(1001), environment(scenario.plan) {
    trajectory::HumanWalkModel model;
    trajectory::Trace trace;
    do {
      trace = trajectory::centered(model.sample(rng));
    } while (trajectory::motionRange(trace) > 3.5);
    system = std::make_unique<core::RfProtectSystem>(
        scenario.makeController());
    dt = 1.0 / scenario.sensing.radar.frameRateHz;
    start = 2.0 * dt;
    ghostId = system->addGhostAuto(trace, start, scenario.plan, rng);
    if (schedule != nullptr) {
      system->attachFaults(std::move(schedule), fault::RecoveryConfig{});
    }
  }

  core::Scenario scenario;
  rfp::common::Rng rng;
  env::Environment environment;
  std::unique_ptr<core::RfProtectSystem> system;
  double dt = 0.0;
  double start = 0.0;
  int ghostId = 0;
};

struct SceneFrame {
  std::vector<env::PointScatterer> scene;
  double t = 0.0;
};

/// The first \p frames scenes of \p text's scenario.
std::vector<SceneFrame> recordScenes(const char* text, std::size_t frames) {
  Home home(text);
  std::vector<SceneFrame> out(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    out[f].t = static_cast<double>(f) * home.dt;
    const auto injected = home.system->injectAt(out[f].t);
    core::combineScatterersInto(out[f].scene, home.environment, out[f].t,
                                home.rng, home.scenario.snapshot, injected);
  }
  return out;
}

/// At every level, frames synthesized through one reused scratch equal
/// synthesize()'s, which starts from a fresh one; the two FMA levels'
/// frames of the same replay equal each other; and some frame hands the
/// tone setup at least nine tones, more than two four-lane vectors in one
/// call.
void expectFramesMatchAcrossLevels(const char* text, std::size_t frames) {
  const std::vector<SceneFrame> scenes = recordScenes(text, frames);
  const radar::Frontend frontend(loadText(text).sensing.radar);
  const simd::KernelLevel entry = simd::activeKernelLevel();
  std::vector<std::vector<radar::Frame>> fmaFrames;
  for (const simd::KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    radar::SynthScratch scratch;
    radar::Frame frame;
    std::size_t mostTones = 0;
    std::vector<radar::Frame> replay;
    for (std::size_t f = 0; f < scenes.size(); ++f) {
      frontend.synthesizeInto(frame, scenes[f].scene, scenes[f].t, 77, f,
                              scratch);
      mostTones = std::max(mostTones, scratch.tones.count);
      ASSERT_TRUE(sameFrame(frame, frontend.synthesize(scenes[f].scene,
                                                       scenes[f].t, 77, f)))
          << "level=" << simd::kernelLevelName(level) << " frame=" << f;
      if (level != simd::KernelLevel::kSse2) replay.push_back(frame);
    }
    EXPECT_GE(mostTones, 9u) << "level=" << simd::kernelLevelName(level);
    if (!replay.empty()) fmaFrames.push_back(std::move(replay));
  }
  simd::setActiveKernelLevel(entry);
  for (std::size_t w = 1; w < fmaFrames.size(); ++w) {
    for (std::size_t f = 0; f < scenes.size(); ++f) {
      ASSERT_TRUE(sameFrame(fmaFrames[0][f], fmaFrames[w][f]))
          << "avx2_fma and avx512 frames diverged at frame " << f
          << ": the two FMA widths must share one numeric regime "
             "(DESIGN.md Sec. 13)";
    }
  }
}

TEST(FrontendFrames, ToyFramesMatchAcrossLevelsAndFmaWidths) {
  expectFramesMatchAcrossLevels(kFleetScenario, 96);
}

TEST(FrontendFrames, OfficeFramesMatchAcrossLevelsAndFmaWidths) {
  expectFramesMatchAcrossLevels(kOfficeScenario, 24);
}

// ---------------------------------------------------------------------------
// Steady-state frame: no heap allocation
// ---------------------------------------------------------------------------

/// Heap allocations made by the eavesdropper's frame loop on reused
/// buffers: the scene with a walking human and the reflector's injected
/// scatterers (so both image paths run), synthesis, background
/// subtraction, the range-angle map and peak detection. The
/// first pass warms every buffer; the second replays the same frames
/// (same injections, same draws) and is the one counted.
std::size_t steadyStateFrameAllocs(const char* text, std::size_t frames) {
  Home home(text);
  home.environment.addHuman(env::TimedPath({{2.0, 1.5}, {4.0, 3.0}}, 1.0));
  core::EavesdropperRadar radar(home.scenario.sensing);
  const tracking::PeakDetector detector(home.scenario.sensing.detector);
  std::vector<std::vector<env::PointScatterer>> injected(frames);
  std::vector<env::PointScatterer> scene;
  radar::Frame frame;
  radar::RangeAngleMap map;
  radar::ProcessorScratch scratch;
  tracking::DetectScratch detectScratch;
  std::vector<tracking::Detection> detections;
  const rfp::common::Rng start = home.rng;
  std::size_t allocs = 0;
  for (const bool counted : {false, true}) {
    home.rng = start;
    radar.reset();
    for (std::size_t f = 0; f < frames; ++f) {
      const double t = static_cast<double>(f) * home.dt;
      if (!counted) injected[f] = home.system->injectAt(t);
      g_allocCount.store(0);
      g_countAllocs.store(counted);
      core::combineScatterersInto(scene, home.environment, t, home.rng,
                                  home.scenario.snapshot, injected[f]);
      radar.senseRawInto(frame, scene, t, home.rng);
      if (const radar::Frame* diff = radar.backgroundDiff(frame)) {
        radar.processor().processInto(*diff, map, scratch);
        detector.detectInto(map, radar.processor(), detectScratch,
                            detections);
      }
      g_countAllocs.store(false);
      allocs += g_allocCount.load();
    }
  }
  return allocs;
}

void expectFramesAllocateNothing(const char* text, std::size_t frames) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    rfp::common::ThreadPool::setGlobalThreads(threads);
    EXPECT_EQ(steadyStateFrameAllocs(text, frames), 0u)
        << "threads=" << threads;
  }
  rfp::common::ThreadPool::setGlobalThreads(0);
}

TEST(SteadyStateFrame, ToyFrameAllocatesNothing) {
  expectFramesAllocateNothing(kFleetScenario, 24);
}

TEST(SteadyStateFrame, OfficeFrameAllocatesNothing) {
  expectFramesAllocateNothing(kOfficeScenario, 12);
}

// ---------------------------------------------------------------------------
// Pipeline: the epoch runner against its frame loop written out
// ---------------------------------------------------------------------------

void append(std::vector<std::uint8_t>& bytes, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  bytes.insert(bytes.end(), b, b + n);
}

/// Appends every difference frame and power map: the memcmp surface.
void appendDiffAndMap(std::vector<std::uint8_t>& bytes,
                      const radar::Frame& diff,
                      const radar::RangeAngleMap& map) {
  for (const auto& row : diff.samples) {
    append(bytes, row.data(), row.size() * sizeof(radar::Complex));
  }
  append(bytes, map.power.data(), map.power.size() * sizeof(double));
}

/// The fleet job's frame loop through SpoofEpochRunner.
class RunnerRun {
 public:
  explicit RunnerRun(std::shared_ptr<const fault::FaultSchedule> schedule)
      : home_(kFleetScenario, schedule),
        runner_(home_.scenario, *home_.system, home_.ghostId, home_.start,
                home_.rng, schedule.get()) {}

  bool done() const { return runner_.done(); }

  /// Advances one frame; returns true when it produced a map.
  bool step(std::vector<std::uint8_t>& bytes) {
    runner_.runFrames(1);
    const radar::Frame* diff = runner_.lastDiff();
    if (diff == nullptr) return false;
    appendDiffAndMap(bytes, *diff, runner_.lastMap());
    return true;
  }

  core::SpoofRunResult finish() { return runner_.finish(); }

 private:
  Home home_;
  core::SpoofEpochRunner runner_;
};

/// The same frame loop written out with Frontend::synthesize: the
/// runner's RNG draws, fault handling and processing, frame by frame.
class WrittenOutRun {
 public:
  explicit WrittenOutRun(std::shared_ptr<const fault::FaultSchedule> schedule)
      : home_(kFleetScenario, schedule),
        schedule_(std::move(schedule)),
        frontend_(home_.scenario.sensing.radar),
        processor_(home_.scenario.sensing.radar,
                   home_.scenario.sensing.processor),
        duration_(home_.start + rfp::common::kTraceDurationS +
                  2.0 * home_.dt) {}

  bool done() const { return t_ > duration_; }

  bool step(std::vector<std::uint8_t>& bytes) {
    const double t = t_;
    t_ += home_.dt;
    const auto injected = home_.system->injectAt(t);
    fault::FrameFaults faults;
    if (schedule_ != nullptr) faults = schedule_->at(t);
    if (faults.radarFrameDropped) return false;
    core::combineScatterersInto(scene_, home_.environment, t, home_.rng,
                                home_.scenario.snapshot, injected);
    const std::uint64_t noiseSeed =
        home_.scenario.sensing.radar.noisePower > 0.0 ? home_.rng.engine()()
                                                      : 0;
    radar::Frame frame = frontend_.synthesize(scene_, t, noiseSeed, 0);
    if (std::isfinite(faults.adcClipLevel)) {
      radar::applyAdcSaturation(frame, faults.adcClipLevel);
    }
    const radar::Frame* diff = processor_.backgroundDiff(frame);
    if (diff == nullptr) return false;
    processor_.processInto(*diff, map_, scratch_);
    appendDiffAndMap(bytes, *diff, map_);
    return true;
  }

 private:
  Home home_;
  std::shared_ptr<const fault::FaultSchedule> schedule_;
  radar::Frontend frontend_;
  radar::Processor processor_;
  double duration_;
  double t_ = 0.0;
  std::vector<env::PointScatterer> scene_;
  radar::RangeAngleMap map_;
  radar::ProcessorScratch scratch_;
};

/// Runs both loops in lockstep.
void runLockstep(RunnerRun& runner, WrittenOutRun& reference) {
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  std::size_t frame = 0;
  while (!runner.done() && !reference.done()) {
    const bool pa = runner.step(a);
    const bool pb = reference.step(b);
    ASSERT_EQ(pa, pb) << "loops fell out of lockstep at frame " << frame;
    ++frame;
  }
  EXPECT_EQ(runner.done(), reference.done());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

// The runner's frame and map bytes equal the written-out loop's over a
// whole run, fault frames included.
TEST(EpochRunner, MatchesItsWrittenOutFrameLoopThroughFaultFrames) {
  // A generated timeline (frame drops, dead elements, stuck switches,
  // gain drift) plus two scripted episodes: an LNA gain clamp, which
  // compresses the actuation amplitudes of the injected scatterers, and an
  // ADC clip window inside it, which corrupts frames after synthesis.
  fault::FaultConfig config;
  config.intensity = 0.6;
  const core::Scenario scenario = loadText(kFleetScenario);
  auto schedule = std::make_shared<fault::FaultSchedule>(
      config, static_cast<int>(scenario.panel.positions().size()),
      1.0 / scenario.sensing.radar.frameRateHz, 30.0);
  schedule->addScriptedEvent(
      {fault::FaultKind::kLnaSaturation, /*startS=*/2.0, /*endS=*/4.0, 0});
  schedule->addScriptedEvent(
      {fault::FaultKind::kAdcSaturation, /*startS=*/3.0, /*endS=*/3.5, 0});

  RunnerRun runner(schedule);
  WrittenOutRun reference(schedule);
  runLockstep(runner, reference);
  const core::SpoofRunResult result = runner.finish();
  EXPECT_GT(result.framesFaulted, 0u);
  EXPECT_GT(result.framesDroppedRadar, 0u);
}

}  // namespace
}  // namespace rfp
