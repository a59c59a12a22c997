/// Scene-cache invalidation edge cases (DESIGN.md Sec. 14): the LRU/byte
/// budget, doorkeeper admission, and the invalidation triggers -- explicit
/// drops, config-fingerprint changes, fault-injected gain clamps
/// mid-epoch, RFP_KERNEL switches between epochs -- each asserted against
/// the contract that the cached pipeline is memcmp-equal to the
/// cache-disabled one. Service-level edges: a scenario resubmitted after
/// an admission shed must run from a fresh cache, and the fork-based
/// kill-anywhere recovery sweep must stay byte-identical with warm caches
/// (replay re-execution bypasses the cache and says so in the report).

#include "radar/scene_cache.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpuid.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "core/scenario_config.h"
#include "env/scatterer.h"
#include "fault/fault_schedule.h"
#include "fault/storage_fault.h"
#include "radar/processor.h"
#include "service/fleet_engine.h"
#include "trajectory/human_walk.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define RFP_HAVE_FORK 1
#endif

namespace rfp {
namespace {

namespace fs = std::filesystem;
namespace simd = rfp::common::simd;

// ---------------------------------------------------------------------------
// SceneCache unit: budget, doorkeeper, sweeps, invalidation counters
// ---------------------------------------------------------------------------

env::PointScatterer scattererAt(double x, double y) {
  env::PointScatterer s;
  s.position = {x, y};
  s.amplitude = 1.0;
  return s;
}

TEST(SceneCacheUnit, DoorkeeperAdmitsOnResightAndBudgetBoundsBytes) {
  constexpr std::size_t kAnt = 2;
  constexpr std::size_t kSamples = 8;
  const std::size_t rowBytes = kAnt * kSamples * sizeof(radar::Complex);
  radar::SceneCache cache(/*maxBytes=*/2 * rowBytes);

  std::vector<env::PointScatterer> scene;
  for (int i = 0; i < 4; ++i) {
    scene.push_back(scattererAt(1.0 + i, 2.0));
  }

  // Frame 1: every key is a first sighting -- all bypassed, no entries.
  cache.beginFrame(/*fingerprint=*/7, kAnt, kSamples);
  for (const auto& s : scene) cache.acquire(s);
  cache.endFrame();
  EXPECT_EQ(cache.stats().bypassed, 4u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // Frame 2: all four promoted, but the working set (4 rows) exceeds the
  // 2-row cap, so endFrame drops everything rather than pin over budget.
  cache.beginFrame(7, kAnt, kSamples);
  for (const auto& s : scene) cache.acquire(s);
  cache.endFrame();
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_LE(cache.stats().bytes, 2 * rowBytes);

  // A 1-scatterer working set fits: re-sighted, promoted, then hit.
  for (int frame = 0; frame < 3; ++frame) {
    cache.beginFrame(7, kAnt, kSamples);
    cache.acquire(scene[0]);
    cache.endFrame();
  }
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().hits, 1u);
  EXPECT_LE(cache.stats().bytes, 2 * rowBytes);

  // Aging: never acquired again -> the periodic sweep evicts it.
  for (int frame = 0; frame < 40; ++frame) {
    cache.beginFrame(7, kAnt, kSamples);
    cache.endFrame();
  }
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(SceneCacheUnit, FingerprintChangeAndExplicitInvalidateDropEntries) {
  radar::SceneCache cache(/*maxBytes=*/1 << 20);
  const env::PointScatterer s = scattererAt(1.0, 1.0);
  for (int frame = 0; frame < 2; ++frame) {
    cache.beginFrame(/*fingerprint=*/1, 2, 8);
    cache.acquire(s);
    cache.endFrame();
  }
  ASSERT_EQ(cache.stats().entries, 1u);

  // New fingerprint (scenario reconfiguration / kernel switch): dropped
  // and counted.
  cache.beginFrame(/*fingerprint=*/2, 2, 8);
  cache.acquire(s);
  cache.endFrame();
  EXPECT_EQ(cache.stats().entries, 0u);  // first sighting again (bypass)
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // Rebuild, then explicit invalidate (the fault-event hook).
  for (int frame = 0; frame < 2; ++frame) {
    cache.beginFrame(2, 2, 8);
    cache.acquire(s);
    cache.endFrame();
  }
  ASSERT_EQ(cache.stats().entries, 1u);
  cache.invalidate();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

// ---------------------------------------------------------------------------
// Pipeline-level identity: cached vs cache-disabled, frame by frame
// ---------------------------------------------------------------------------

/// Cost-reduced deployment (the fleet bench's validation floor) so a full
/// trace runs in test time.
constexpr const char* kFleetScenario = R"(
room.name = fleet-home
radar.sample_rate = 16000
radar.antennas = 3
panel.count = 4
)";

/// One spoofing scenario driven frame by frame through the epoch runner,
/// appending every difference frame and processed power map to a byte
/// string -- the memcmp surface of the identity tests.
class EpochRun {
 public:
  EpochRun(bool sceneCache, const fault::FaultSchedule* schedule = nullptr)
      : scenario_(load()), rng_(1001) {
    trajectory::HumanWalkModel model;
    do {
      trace_ = trajectory::centered(model.sample(rng_));
    } while (trajectory::motionRange(trace_) > 3.5);
    system_ = std::make_unique<core::RfProtectSystem>(
        scenario_.makeController());
    const double dt = 1.0 / scenario_.sensing.radar.frameRateHz;
    const double start = 2.0 * dt;
    const int ghostId =
        system_->addGhostAuto(trace_, start, scenario_.plan, rng_);
    runner_ = std::make_unique<core::SpoofEpochRunner>(
        scenario_, *system_, ghostId, start, rng_, schedule, sceneCache);
  }

  bool done() const { return runner_->done(); }

  /// Advances one frame; returns true when it produced a map (and its
  /// bytes were appended) -- false for dropped/priming frames.
  bool step(std::vector<std::uint8_t>& bytes) {
    runner_->runFrames(1);
    const radar::Frame* diff = runner_->lastDiff();
    if (diff == nullptr) return false;
    for (const auto& row : diff->samples) {
      append(bytes, row.data(), row.size() * sizeof(radar::Complex));
    }
    const radar::RangeAngleMap& map = runner_->lastMap();
    append(bytes, map.power.data(), map.power.size() * sizeof(double));
    return true;
  }

  std::vector<std::uint8_t> runAll() {
    std::vector<std::uint8_t> bytes;
    while (!done()) step(bytes);
    return bytes;
  }

  radar::SceneCache::Stats cacheStats() const {
    return runner_->sceneCache().stats();
  }
  core::SpoofRunResult finish() { return runner_->finish(); }

 private:
  static core::Scenario load() {
    std::istringstream in(kFleetScenario);
    return core::loadScenario(in, "scene-cache-test");
  }
  static void append(std::vector<std::uint8_t>& bytes, const void* p,
                     std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }

  core::Scenario scenario_;
  rfp::common::Rng rng_;
  trajectory::Trace trace_;
  std::unique_ptr<core::RfProtectSystem> system_;
  std::unique_ptr<core::SpoofEpochRunner> runner_;
};

TEST(SceneCachePipeline, CachedRunBitIdenticalToUncachedWithRealReuse) {
  EpochRun warm(/*sceneCache=*/true);
  EpochRun cold(/*sceneCache=*/false);
  const std::vector<std::uint8_t> a = warm.runAll();
  const std::vector<std::uint8_t> b = cold.runAll();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
  // The gate is only meaningful if the cache actually reused rows.
  const radar::SceneCache::Stats stats = warm.cacheStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.bypassed, 0u);  // the moving ghost stays uncached
}

TEST(SceneCachePipeline, GainClampFaultMidEpochStaysBitIdentical) {
  // Scripted mid-run saturation episodes: an LNA gain clamp (actuation
  // amplitudes compress, changing scatterer keys) and an ADC clip window
  // (frame corrupted in place -> the runner explicitly invalidates). The
  // ADC window sits inside the clamp window, where the cache is warm with
  // clamped-key entries -- so the explicit invalidation has entries to
  // drop and must be counted.
  fault::FaultSchedule schedule;
  schedule.addScriptedEvent(
      {fault::FaultKind::kLnaSaturation, /*startS=*/2.0, /*endS=*/4.0, 0});
  schedule.addScriptedEvent(
      {fault::FaultKind::kAdcSaturation, /*startS=*/3.0, /*endS=*/3.5, 0});

  EpochRun warm(/*sceneCache=*/true, &schedule);
  EpochRun cold(/*sceneCache=*/false, &schedule);
  const std::vector<std::uint8_t> a = warm.runAll();
  const std::vector<std::uint8_t> b = cold.runAll();
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  // The fault episodes really happened, and the ADC window triggered the
  // explicit fault-event invalidation hook.
  const core::SpoofRunResult result = warm.finish();
  EXPECT_GT(result.framesFaulted, 0u);
  EXPECT_GE(warm.cacheStats().invalidations, 1u);
}

TEST(SceneCachePipeline, KernelSwitchBetweenEpochsInvalidatesAndMatches) {
  const simd::KernelLevel entry = simd::activeKernelLevel();
  const simd::KernelLevel best = simd::maxSupportedLevel(simd::cpuFeatures());
  const simd::KernelLevel from = simd::KernelLevel::kSse2;
  const simd::KernelLevel to = best;
  simd::setActiveKernelLevel(from);

  // Lockstep frame loop so the process-wide kernel switch lands on the
  // same epoch boundary of both runners.
  EpochRun warm(/*sceneCache=*/true);
  EpochRun cold(/*sceneCache=*/false);
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  std::uint64_t invalidationsBeforeSwitch = 0;
  constexpr std::size_t kEpochFrames = 32;
  std::size_t frame = 0;
  while (!warm.done() && !cold.done()) {
    if (frame == 2 * kEpochFrames) {
      invalidationsBeforeSwitch = warm.cacheStats().invalidations;
      simd::setActiveKernelLevel(to);
    }
    const bool pa = warm.step(a);
    const bool pb = cold.step(b);
    ASSERT_EQ(pa, pb) << "runners fell out of lockstep at frame " << frame;
    ++frame;
  }
  EXPECT_EQ(warm.done(), cold.done());
  simd::setActiveKernelLevel(entry);

  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
  if (to != from) {
    // The fingerprint mixes in the kernel level, so the switch must have
    // dropped the warm entries exactly once more.
    EXPECT_GT(warm.cacheStats().invalidations, invalidationsBeforeSwitch);
  }
}

// ---------------------------------------------------------------------------
// Service-level edges: resubmit after shed, recovery with warm caches
// ---------------------------------------------------------------------------

constexpr const char* kCheapScenario = R"(
room.name = cheap
radar.sample_rate = 128000
radar.antennas = 5
panel.count = 4
)";

service::ScenarioSubmission cheapSubmission(const std::string& name,
                                            int priority = 0,
                                            std::uint64_t seed = 1) {
  service::ScenarioSubmission s;
  s.name = name;
  s.scenarioText = kCheapScenario;
  s.priority = priority;
  s.seed = seed;
  return s;
}

/// Ledger bytes plus every known scenario's retained metric stream (raw
/// field bytes, id order): the byte-comparison surface of the service
/// tests.
std::string engineBytes(service::FleetEngine& engine,
                        const std::vector<std::uint64_t>& ids) {
  std::string out = engine.ledger().serialize();
  for (const std::uint64_t id : ids) {
    std::vector<service::EpochMetrics> stream;
    try {
      stream = engine.metricsSince(id, 0);
    } catch (const std::out_of_range&) {
      out += "|unknown";
      continue;
    }
    for (const service::EpochMetrics& m : stream) {
      const auto append = [&out](const void* p, std::size_t n) {
        out.append(static_cast<const char*>(p), n);
      };
      append(&m.epoch, sizeof(m.epoch));
      append(&m.framesSimulated, sizeof(m.framesSimulated));
      append(&m.framesTotal, sizeof(m.framesTotal));
      append(&m.framesDetected, sizeof(m.framesDetected));
      append(&m.sumDistanceErrorM, sizeof(m.sumDistanceErrorM));
      append(&m.sumAngleErrorDeg, sizeof(m.sumAngleErrorDeg));
    }
  }
  return out;
}

/// Drives the shed-then-resubmit admission sequence and returns the full
/// observable surface. The sequence is deterministic, so the cached and
/// cache-disabled engines must produce identical bytes -- in particular,
/// the resubmitted scenario (a fresh admission id and job) must not
/// inherit anything from its shed predecessor's warm cache.
std::string runShedResubmitSequence(bool sceneCache) {
  service::FleetServiceConfig config;
  config.maxActive = 1;
  config.queueCapacity = 2;
  config.epochFrames = 64;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 120.0;
  config.seed = 7;
  config.sceneCache = sceneCache;
  service::FleetEngine engine(config);

  std::vector<std::uint64_t> ids;
  const auto submit = [&](const service::ScenarioSubmission& s) {
    const auto outcome = engine.submit(s);
    ids.push_back(outcome.scenarioId);
    return outcome;
  };
  submit(cheapSubmission("first", 0, 11));        // active, cache warming
  submit(cheapSubmission("second", 0, 22));       // queued
  const auto victim = submit(cheapSubmission("third", 0, 33));  // queued
  submit(cheapSubmission("urgent", /*priority=*/5, 44));  // sheds "third"
  EXPECT_EQ(engine.status(victim.scenarioId).state,
            service::ScenarioState::kShed);

  // Let the active scenario make warm-cache progress, drain queue head
  // room, then resubmit the shed scenario as a new admission.
  while (engine.counters().queued >= config.queueCapacity &&
         !engine.idle()) {
    engine.step();
  }
  const auto again = submit(cheapSubmission("third", 0, 33));
  EXPECT_NE(again.state, service::ScenarioState::kRejected);
  engine.runUntilIdle(/*maxRounds=*/512);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.status(again.scenarioId).state,
            service::ScenarioState::kCompleted);
  return engineBytes(engine, ids);
}

TEST(SceneCacheService, ResubmitAfterShedMatchesCacheDisabledEngine) {
  const std::string warm = runShedResubmitSequence(/*sceneCache=*/true);
  const std::string cold = runShedResubmitSequence(/*sceneCache=*/false);
  ASSERT_FALSE(warm.empty());
  EXPECT_EQ(warm, cold);
}

#ifdef RFP_HAVE_FORK

std::string tempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

service::FleetServiceConfig durableConfig(const std::string& dir) {
  service::FleetServiceConfig config;
  config.maxActive = 2;
  config.queueCapacity = 4;
  config.epochFrames = 64;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 0.0;  // no watchdog thread (fork safety)
  config.seed = 7;
  config.sceneCache = true;  // the point of this sweep: caches run warm
  config.durability.dir = dir;
  config.durability.snapshotEveryRounds = 3;
  config.durability.retainMetricsEpochs = 256;
  return config;
}

std::vector<service::ScenarioSubmission> sweepSubmissions() {
  std::vector<service::ScenarioSubmission> subs;
  for (int i = 0; i < 3; ++i) {
    subs.push_back(cheapSubmission("home-" + std::to_string(i), i == 2,
                                   11 + static_cast<std::uint64_t>(i) * 31));
  }
  return subs;
}

/// Child half: run the durable engine (warm caches) with SIGKILL armed at
/// storage op \p killOp. Never returns.
[[noreturn]] void killChild(const std::string& dir, std::uint64_t killOp) {
  fault::StorageFaultInjector injector;
  injector.killAtOp(killOp);
  rfp::common::ThreadPool pool(1);
  try {
    service::FleetEngine engine(durableConfig(dir), &pool, &injector);
    for (const auto& s : sweepSubmissions()) engine.submit(s);
    engine.runUntilIdle(64);
  } catch (...) {
    _exit(3);
  }
  _exit(0);
}

TEST(SceneCacheService, KillAnywhereRecoveryWithWarmCacheByteIdentical) {
  // Inline pool for the whole sweep: a forked child must not inherit dead
  // worker threads (same rationale as test_recovery's sweep).
  rfp::common::ThreadPool::setGlobalThreads(1);
  const std::vector<service::ScenarioSubmission> subs = sweepSubmissions();

  // Uninterrupted reference run (warm caches, durable).
  std::string want;
  std::vector<std::uint64_t> ids{1, 2, 3};
  {
    service::FleetEngine engine(durableConfig(tempDir("scache-ref")));
    for (const auto& s : subs) engine.submit(s);
    engine.runUntilIdle(64);
    ASSERT_TRUE(engine.idle());
    want = engineBytes(engine, ids);
  }

  // Count the storage ops of one run, then kill at a strided sample of
  // them (first, interior points, last).
  std::uint64_t totalOps = 0;
  {
    fault::StorageFaultInjector counter;
    service::FleetEngine engine(durableConfig(tempDir("scache-count")),
                                nullptr, &counter);
    for (const auto& s : subs) engine.submit(s);
    engine.runUntilIdle(64);
    totalOps = counter.opCount();
  }
  ASSERT_GT(totalOps, 4u);
  const std::vector<std::uint64_t> killOps{
      0, totalOps / 3, (2 * totalOps) / 3, totalOps - 1};

  const std::string dir = tempDir("scache-kill");
  bool sawReExecution = false;
  for (const std::uint64_t killOp : killOps) {
    SCOPED_TRACE("kill at storage op " + std::to_string(killOp));
    fs::remove_all(dir);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) killChild(dir, killOp);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child should die by its own SIGKILL (status " << status << ")";

    auto engine = service::FleetEngine::recover(durableConfig(dir));
    const service::RecoveryReport& rep = engine->recoveryReport();
    EXPECT_FALSE(rep.lossDetected) << rep.detail;
    if (rep.reExecutedEpochs > 0) {
      sawReExecution = true;
      // Replay must run cache-bypassed and say so.
      EXPECT_NE(rep.detail.find("bypassed the scene cache"),
                std::string::npos)
          << rep.detail;
    }

    // Resubmit whatever the journal never saw, then run to idle.
    for (std::size_t i = 0; i < subs.size(); ++i) {
      const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
      bool known = true;
      try {
        engine->status(id);
      } catch (const std::out_of_range&) {
        known = false;
      }
      if (!known) engine->submit(subs[i]);
    }
    engine->runUntilIdle(64);
    ASSERT_TRUE(engine->idle());
    EXPECT_EQ(engineBytes(*engine, ids), want)
        << "post-recovery surface diverged (kill at op " << killOp << ")";
  }
  EXPECT_TRUE(sawReExecution)
      << "sweep never exercised epoch re-execution; kill points too early";
  rfp::common::ThreadPool::setGlobalThreads(0);
}

#endif  // RFP_HAVE_FORK

}  // namespace
}  // namespace rfp
