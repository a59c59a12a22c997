/// Tone memo (DESIGN.md Sec. 14): the memo's own contract -- hits, slot
/// conflicts, duplicates and slots pended twice within a frame, the
/// drops on a fingerprint or antenna-count change -- and the one property
/// everything rests on: a front end with the memo produces the frames a
/// front end without it does, memcmp-equal, frame after frame over real
/// office (paper radar) and fleet-home (toy radar) scenes with real
/// reuse, at every kernel level (whose two FMA widths give equal frames),
/// through a kernel switch between epochs and through ADC-clip,
/// gain-clamp and frame-drop fault frames. Both homes also show that the
/// eavesdropper's steady-state frame, scene to detections, allocates
/// nothing, at pool sizes 1 and 4.

#include "radar/tone_memo.h"

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
using radar::detail::ToneChain;

// ---------------------------------------------------------------------------
// ToneMemo unit: hits, conflicts, duplicates, drops
// ---------------------------------------------------------------------------

env::PointScatterer scattererAt(double x, double y) {
  env::PointScatterer s;
  s.position = {x, y};
  s.amplitude = 1.0;
  return s;
}

/// Two antenna chains whose values identify \p tag.
std::vector<ToneChain> taggedChains(double tag) {
  std::vector<ToneChain> chains(2);
  for (std::size_t k = 0; k < chains.size(); ++k) {
    chains[k].p[0] = {tag, static_cast<double>(k)};
    chains[k].step = {1.0, tag};
  }
  return chains;
}

bool sameChains(const std::vector<ToneChain>& a,
                const std::vector<ToneChain>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(ToneChain)) == 0;
}

/// Looks \p s up; on a miss pends it and stores \p chains, as the front
/// end's setup call would. Returns whether it hit and, through \p out,
/// the chains a hit returned.
bool lookupOrFill(radar::ToneMemo& memo, const env::PointScatterer& s,
                  const std::vector<ToneChain>& chains,
                  std::vector<ToneChain>& out) {
  out.assign(chains.size(), ToneChain{});
  bool nonzero = false;
  if (memo.lookup(s, out.data(), /*stride=*/1, nonzero)) {
    EXPECT_TRUE(nonzero);
    return true;
  }
  memo.pend(/*nonzero=*/true, /*column=*/0);
  memo.storePending(chains.data(), /*stride=*/1);
  return false;
}

TEST(ToneMemoUnit, HitAfterMissReturnsTheStoredChains) {
  radar::ToneMemo memo;
  const env::PointScatterer s = scattererAt(1.0, 2.0);
  const std::vector<ToneChain> chains = taggedChains(0.5);
  std::vector<ToneChain> out;
  memo.beginFrame(/*fingerprint=*/7, /*numAntennas=*/2);
  EXPECT_FALSE(lookupOrFill(memo, s, chains, out));
  memo.beginFrame(7, 2);
  ASSERT_TRUE(lookupOrFill(memo, s, chains, out));
  EXPECT_TRUE(sameChains(out, chains));

  // Any bit of any key field is a different key.
  env::PointScatterer moved = s;
  moved.phaseOffsetRad = std::nextafter(0.0, 1.0);
  EXPECT_FALSE(lookupOrFill(memo, moved, taggedChains(0.25), out));
  EXPECT_EQ(memo.stats().lookups, 3u);
  EXPECT_EQ(memo.stats().hits, 1u);
}

/// A scatterer other than \p s that maps to the same slot.
env::PointScatterer slotMate(const env::PointScatterer& s) {
  const std::size_t slot = radar::ToneMemo::slotOf(s);
  for (int i = 1;; ++i) {
    const env::PointScatterer t = scattererAt(s.position.x + 0.001 * i, 5.0);
    if (radar::ToneMemo::slotOf(t) == slot) return t;
  }
}

TEST(ToneMemoUnit, TwoKeysInOneSlotOverwriteEachOther) {
  radar::ToneMemo memo;
  const env::PointScatterer a = scattererAt(1.0, 2.0);
  const env::PointScatterer b = slotMate(a);
  const std::vector<ToneChain> chainsA = taggedChains(0.5);
  const std::vector<ToneChain> chainsB = taggedChains(0.75);
  std::vector<ToneChain> out;
  memo.beginFrame(7, 2);
  EXPECT_FALSE(lookupOrFill(memo, a, chainsA, out));
  EXPECT_FALSE(lookupOrFill(memo, b, chainsB, out));  // evicts a
  ASSERT_TRUE(lookupOrFill(memo, b, chainsB, out));
  EXPECT_TRUE(sameChains(out, chainsB));
  EXPECT_FALSE(lookupOrFill(memo, a, chainsA, out));  // full-key compare
  ASSERT_TRUE(lookupOrFill(memo, a, chainsA, out));
  EXPECT_TRUE(sameChains(out, chainsA));
}

/// \p chains (one per antenna) copied into column \p column of a
/// [antenna][column] array of \p stride columns.
std::vector<ToneChain> inColumn(const std::vector<ToneChain>& chains,
                                std::size_t column, std::size_t stride) {
  std::vector<ToneChain> array(chains.size() * stride);
  for (std::size_t k = 0; k < chains.size(); ++k) {
    array[k * stride + column] = chains[k];
  }
  return array;
}

// The front end pends every miss of a frame and stores them after one
// setup call, so a key repeated within the frame misses again (and is
// computed again, to the same chains); the next frame hits it.
TEST(ToneMemoUnit, DuplicateKeyWithinOneFrameMissesUntilStored) {
  radar::ToneMemo memo;
  const env::PointScatterer s = scattererAt(3.0, 1.0);
  const std::vector<ToneChain> chains = taggedChains(0.125);
  std::vector<ToneChain> out(2);
  bool nonzero = false;
  memo.beginFrame(7, 2);
  EXPECT_FALSE(memo.lookup(s, out.data(), 1, nonzero));
  memo.pend(/*nonzero=*/true, /*column=*/0);
  EXPECT_FALSE(memo.lookup(s, out.data(), 1, nonzero));
  memo.pend(/*nonzero=*/true, /*column=*/1);
  memo.storePending(inColumn(chains, 1, 2).data(), /*stride=*/2);
  memo.beginFrame(7, 2);
  ASSERT_TRUE(lookupOrFill(memo, s, taggedChains(0.5), out));
  EXPECT_TRUE(sameChains(out, chains));
}

// Two keys pended in one slot within a frame: the slot keeps the later
// one, with the later one's chains, whether it takes a column or is a
// zero tone stored at once.
TEST(ToneMemoUnit, SlotPendedTwiceKeepsTheLaterScatterer) {
  const env::PointScatterer a = scattererAt(1.0, 2.0);
  const env::PointScatterer b = slotMate(a);
  const std::vector<ToneChain> chainsA = taggedChains(0.5);
  const std::vector<ToneChain> chainsB = taggedChains(0.75);
  std::vector<ToneChain> array = inColumn(chainsA, 0, 2);
  for (std::size_t k = 0; k < 2; ++k) array[k * 2 + 1] = chainsB[k];
  for (const bool bTakesAColumn : {true, false}) {
    radar::ToneMemo memo;
    std::vector<ToneChain> out(2);
    bool nonzero = false;
    memo.beginFrame(7, 2);
    EXPECT_FALSE(memo.lookup(a, out.data(), 1, nonzero));
    memo.pend(/*nonzero=*/true, /*column=*/0);
    EXPECT_FALSE(memo.lookup(b, out.data(), 1, nonzero));
    memo.pend(bTakesAColumn, /*column=*/1);
    memo.storePending(array.data(), /*stride=*/2);
    memo.beginFrame(7, 2);
    ASSERT_TRUE(memo.lookup(b, out.data(), 1, nonzero));
    EXPECT_EQ(nonzero, bTakesAColumn);
    if (bTakesAColumn) {
      EXPECT_TRUE(sameChains(out, chainsB));
    }
    EXPECT_FALSE(memo.lookup(a, out.data(), 1, nonzero));
  }
}

TEST(ToneMemoUnit, FingerprintAndAntennaCountChangesEmptyTheTable) {
  radar::ToneMemo memo;
  const env::PointScatterer s = scattererAt(1.0, 1.0);
  const std::vector<ToneChain> chains = taggedChains(0.5);
  std::vector<ToneChain> out;
  memo.beginFrame(/*fingerprint=*/1, 2);
  EXPECT_FALSE(lookupOrFill(memo, s, chains, out));
  memo.beginFrame(1, 2);
  EXPECT_TRUE(lookupOrFill(memo, s, chains, out));

  // New fingerprint (scenario reconfiguration or kernel switch).
  memo.beginFrame(/*fingerprint=*/2, 2);
  EXPECT_FALSE(lookupOrFill(memo, s, chains, out));
  memo.beginFrame(2, 2);
  EXPECT_TRUE(lookupOrFill(memo, s, chains, out));

  // New antenna count under the same fingerprint.
  const std::vector<ToneChain> three(3, chains.front());
  memo.beginFrame(2, 3);
  EXPECT_FALSE(lookupOrFill(memo, s, three, out));
  memo.beginFrame(2, 3);
  ASSERT_TRUE(lookupOrFill(memo, s, three, out));
  EXPECT_TRUE(sameChains(out, three));
}

// ---------------------------------------------------------------------------
// Frontend: memo frames against memo-less frames
// ---------------------------------------------------------------------------

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

// a and b share a slot. Frame 1 memoizes a; frame 2 lists a (a hit), then
// b, which overwrites a's slot: the frame must still hold a's tone, not
// b's twice. Frame 3 lists b (a hit) and a (a miss, which takes the slot
// back).
TEST(ToneMemoFrontend, SlotOverwrittenLaterInTheFrameKeepsEarlierChains) {
  const radar::Frontend frontend(smallRadar());
  const env::PointScatterer a = scattererAt(4.0, 3.0);
  const env::PointScatterer b = slotMate(a);
  radar::ToneMemo memo;
  radar::Frame frame;
  const std::vector<std::vector<env::PointScatterer>> frames{
      {a}, {a, b}, {b, a}};
  for (std::uint64_t f = 0; f < frames.size(); ++f) {
    const double t = 0.1 * static_cast<double>(f);
    frontend.synthesizeInto(frame, frames[f], t, 11, f, &memo);
    EXPECT_TRUE(sameFrame(frame, frontend.synthesize(frames[f], t, 11, f)))
        << "frame " << f;
  }
  EXPECT_EQ(memo.stats().hits, 2u);
}

// Scatterers whose amplitude after path loss is not positive -- zero,
// negative or NaN -- add nothing, with or without the memo: the frame
// equals the frame of the list without them.
TEST(ToneMemoFrontend, ZeroNegativeAndNaNAmplitudesMatchTheMemoLessPath) {
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
  radar::ToneMemo memo;
  radar::Frame frame;
  for (std::uint64_t chirp = 0; chirp < 3; ++chirp) {
    const double t = 0.1 * static_cast<double>(chirp);
    frontend.synthesizeInto(frame, withSkipped, t, 5, chirp, &memo);
    EXPECT_TRUE(sameFrame(frame, frontend.synthesize(withSkipped, t, 5, chirp)));
    EXPECT_TRUE(
        sameFrame(frame, frontend.synthesize(withoutSkipped, t, 5, chirp)));
  }
  EXPECT_GT(memo.stats().hits, 0u);
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
  return core::loadScenario(in, "tone-memo-test");
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

/// At every level, memo frames equal memo-less ones; the two FMA levels'
/// frames of the same replay equal each other; and some frame hands the
/// tone setup at least nine misses, more than two four-lane vectors in
/// one call.
void expectMemoMatchesMemoLess(const char* text, std::size_t frames) {
  const std::vector<SceneFrame> scenes = recordScenes(text, frames);
  const radar::Frontend frontend(loadText(text).sensing.radar);
  const simd::KernelLevel entry = simd::activeKernelLevel();
  std::vector<std::vector<radar::Frame>> fmaFrames;
  for (const simd::KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    radar::ToneMemo memo;
    radar::Frame frame;
    std::size_t mostMisses = 0;
    std::vector<radar::Frame> replay;
    for (std::size_t f = 0; f < scenes.size(); ++f) {
      frontend.synthesizeInto(frame, scenes[f].scene, scenes[f].t, 77, f,
                              &memo);
      // The misses the setup call received, not the memo's missed
      // lookups: a miss whose amplitude is not positive never reaches it.
      mostMisses = std::max(mostMisses, memo.frameMisses().count);
      ASSERT_TRUE(sameFrame(frame, frontend.synthesize(scenes[f].scene,
                                                       scenes[f].t, 77, f)))
          << "level=" << simd::kernelLevelName(level) << " frame=" << f;
      if (level != simd::KernelLevel::kSse2) replay.push_back(frame);
    }
    EXPECT_GT(memo.stats().hits, 0u)
        << "level=" << simd::kernelLevelName(level);
    EXPECT_GE(mostMisses, 9u) << "level=" << simd::kernelLevelName(level);
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

TEST(ToneMemoFrontend, ToyFramesMatchAtEveryLevel) {
  expectMemoMatchesMemoLess(kFleetScenario, 96);
}

TEST(ToneMemoFrontend, OfficeFramesMatchAtEveryLevel) {
  expectMemoMatchesMemoLess(kOfficeScenario, 24);
}

// ---------------------------------------------------------------------------
// Steady-state frame: no heap allocation
// ---------------------------------------------------------------------------

/// Heap allocations made by the eavesdropper's frame loop on reused
/// buffers: the scene with a walking human and the reflector's injected
/// scatterers (so both image paths run), synthesis through the tone memo,
/// background subtraction, the range-angle map and peak detection. The
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
  EXPECT_GT(radar.toneMemo().stats().hits, 0u);
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
// Pipeline: the epoch runner (memo on) against a memo-less frame loop
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

/// The fleet job's frame loop through SpoofEpochRunner, whose
/// eavesdropper synthesizes with its tone memo.
class MemoRun {
 public:
  explicit MemoRun(
      std::shared_ptr<const fault::FaultSchedule> schedule = nullptr)
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

  const radar::ToneMemo& memo() const { return runner_.toneMemo(); }
  core::SpoofRunResult finish() { return runner_.finish(); }

 private:
  Home home_;
  core::SpoofEpochRunner runner_;
};

/// The same frame loop written out with a memo-less Frontend::synthesize:
/// the runner's RNG draws, fault handling and processing, frame by frame.
class MemoLessRun {
 public:
  explicit MemoLessRun(
      std::shared_ptr<const fault::FaultSchedule> schedule = nullptr)
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

/// Runs both loops in lockstep; \p beforeFrame runs ahead of frame f.
template <typename Hook>
void runLockstep(MemoRun& memo, MemoLessRun& reference, Hook beforeFrame) {
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  std::size_t frame = 0;
  while (!memo.done() && !reference.done()) {
    beforeFrame(frame);
    const bool pa = memo.step(a);
    const bool pb = reference.step(b);
    ASSERT_EQ(pa, pb) << "loops fell out of lockstep at frame " << frame;
    ++frame;
  }
  EXPECT_EQ(memo.done(), reference.done());
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
}

// These three keep the names they had when the front end cached whole
// tone rows (the "scene cache"); the property is the same.
TEST(SceneCachePipeline, CachedRunBitIdenticalToUncachedWithRealReuse) {
  MemoRun memo;
  MemoLessRun reference;
  runLockstep(memo, reference, [](std::size_t) {});
  // The gate is only meaningful if the memo really served chains.
  EXPECT_GT(memo.memo().stats().hits, 0u);
  EXPECT_LT(memo.memo().stats().hits, memo.memo().stats().lookups);
}

TEST(SceneCachePipeline, GainClampFaultMidEpochStaysBitIdentical) {
  // A generated timeline (frame drops, dead elements, stuck switches,
  // gain drift) plus two scripted episodes: an LNA gain clamp, which
  // compresses the actuation amplitudes and so changes scatterer keys, and
  // an ADC clip window inside it, which corrupts frames after synthesis.
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

  MemoRun memo(schedule);
  MemoLessRun reference(schedule);
  runLockstep(memo, reference, [](std::size_t) {});
  const core::SpoofRunResult result = memo.finish();
  EXPECT_GT(result.framesFaulted, 0u);
  EXPECT_GT(result.framesDroppedRadar, 0u);
  EXPECT_GT(memo.memo().stats().hits, 0u);
}

TEST(SceneCachePipeline, KernelSwitchBetweenEpochsInvalidatesAndMatches) {
  const simd::KernelLevel entry = simd::activeKernelLevel();
  const simd::KernelLevel best = simd::maxSupportedLevel(simd::cpuFeatures());
  simd::setActiveKernelLevel(simd::KernelLevel::kSse2);

  // The switch lands on the same epoch boundary of both loops; the memo's
  // fingerprint mixes in the kernel level, so it empties there, and the
  // hits after it come from chains the new level computed.
  MemoRun memo;
  MemoLessRun reference;
  constexpr std::size_t kEpochFrames = 32;
  std::uint64_t hitsBeforeSwitch = 0;
  runLockstep(memo, reference, [&](std::size_t frame) {
    if (frame == 2 * kEpochFrames) {
      hitsBeforeSwitch = memo.memo().stats().hits;
      simd::setActiveKernelLevel(best);
    }
  });
  simd::setActiveKernelLevel(entry);
  EXPECT_GT(hitsBeforeSwitch, 0u);
  EXPECT_GT(memo.memo().stats().hits, hitsBeforeSwitch);
}

}  // namespace
}  // namespace rfp
