/// \file bench_ext_fleet.cpp
/// Extension benchmark: the fault-contained fleet scenario service
/// (src/service) at 10 / 100 / 1000 concurrent homes, plus a chaos sweep
/// with poison, stuck, and overload faults injected mid-run.
///
/// Scale sweep (all go to BENCH_fleet.json):
///   - fleet_10 / fleet_100 / fleet_1000: N independent spoofing scenarios
///     (cost-reduced radar: 8 samples x 3 antennas) submitted at once and
///     run to completion over the shared pool. Reported per scale:
///     scenarios/sec, p50/p99 epoch-round latency (the wall time of one
///     step(), which runs every active scenario's epoch as one pool task
///     -- the latency an epoch experiences), and the shed/failed counters
///     (expected 0 on the clean sweep).
///   - chaos: a 16-active shard mid-run hit by 4 poison scenarios, 4 stuck
///     scenarios (work-budget deadline), and an overload burst that drives
///     admission through queue -> shed_lowest -> reject_new.
///
/// Expected shape: every clean scale completes everything it admitted with
/// zero sheds/failures; the chaos run fails exactly the poisoned + stuck
/// scenarios, sheds/rejects exactly the overload victims, and -- the two
/// robustness gates -- (a) every *healthy* scenario's per-epoch metric
/// stream is bit-identical to an unperturbed same-seed run, and (b) two
/// same-seed chaos runs produce byte-identical service ledgers.
///
/// `--smoke` runs the same sweep (tens of seconds) and skips only the
/// google-benchmark timing loop.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpuid.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "core/scenario_config.h"
#include "fault/scenario_fault.h"
#include "env/environment.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "radar/tone_memo.h"
#include "service/fleet_engine.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;

constexpr const char* kOutputPath = "BENCH_fleet.json";

/// Cost-reduced deployment so a 1000-home sweep fits bench time: the
/// radar cost knobs cut one chirp from 500 samples x 7 antennas to the
/// validation floor of 8 samples x 3 antennas.
constexpr const char* kFleetScenario = R"(
room.name = fleet-home
radar.sample_rate = 16000
radar.antennas = 3
panel.count = 4
)";

service::ScenarioSubmission homeSubmission(std::size_t index,
                                           int priority = 0) {
  service::ScenarioSubmission s;
  s.name = "home-" + std::to_string(index);
  s.scenarioText = kFleetScenario;
  s.priority = priority;
  s.seed = 1000 + index;
  return s;
}

struct ScaleResult {
  std::string name;
  std::size_t scenarios = 0;
  std::size_t maxActive = 0;
  std::size_t rounds = 0;
  double elapsedS = 0.0;
  double scenariosPerSec = 0.0;
  double p50RoundMs = 0.0;
  double p99RoundMs = 0.0;
  double p999RoundMs = 0.0;
  service::FleetCounters counters;
};

service::FleetServiceConfig scaleConfig(std::size_t scenarios) {
  service::FleetServiceConfig config;
  config.maxActive = 16;
  config.queueCapacity = scenarios;  // clean sweep: nothing sheds
  config.epochFrames = 32;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 30.0;
  config.seed = 11;
  return config;
}

ScaleResult runScale(std::size_t scenarios) {
  ScaleResult out;
  out.name = "fleet_" + std::to_string(scenarios);
  out.scenarios = scenarios;

  const service::FleetServiceConfig config = scaleConfig(scenarios);
  out.maxActive = config.maxActive;
  service::FleetEngine engine(config);
  for (std::size_t i = 0; i < scenarios; ++i) {
    engine.submit(homeSubmission(i));
  }

  std::vector<double> roundMs;
  bench::WallTimer total;
  while (!engine.idle()) {
    bench::WallTimer round;
    engine.step();
    roundMs.push_back(round.elapsedMs());
  }
  out.elapsedS = total.elapsedS();
  out.rounds = roundMs.size();
  out.counters = engine.counters();
  out.scenariosPerSec =
      out.elapsedS > 0.0
          ? static_cast<double>(out.counters.completed) / out.elapsedS
          : 0.0;
  if (!roundMs.empty()) {
    out.p50RoundMs = rfp::common::percentile(roundMs, 50.0);
    out.p99RoundMs = rfp::common::percentile(roundMs, 99.0);
    out.p999RoundMs = rfp::common::percentile(roundMs, 99.9);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tone-memo identity gate
// ---------------------------------------------------------------------------

/// The scatterer lists of one fleet home's frames, built in the fleet
/// job's RNG order (reflector injection, then the scene snapshot).
struct HomeScenes {
  radar::RadarConfig radar;
  std::vector<std::vector<env::PointScatterer>> scenes;
  std::vector<double> times;
};

HomeScenes recordHomeScenes() {
  std::istringstream in(kFleetScenario);
  core::Scenario scenario = core::loadScenario(in, "identity-gate");
  rfp::common::Rng rng(1001);
  trajectory::HumanWalkModel model;
  trajectory::Trace trace;
  do {
    trace = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(trace) > 3.5);
  core::RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  system.addGhostAuto(trace, 2.0 * dt, scenario.plan, rng);
  env::Environment environment(scenario.plan);

  HomeScenes out;
  out.radar = scenario.sensing.radar;
  const double duration = 2.0 * dt + rfp::common::kTraceDurationS + 2.0 * dt;
  for (double t = 0.0; t <= duration; t += dt) {
    const auto injected = system.injectAt(t);
    out.scenes.emplace_back();
    core::combineScatterersInto(out.scenes.back(), environment, t, rng,
                                scenario.snapshot, injected);
    out.times.push_back(t);
  }
  return out;
}

/// The memcmp surface of the gate: every frame's raw I/Q bytes and its
/// range-angle power map, synthesized with a tone memo (\p memo) or
/// without one. If one bit anywhere differs, the byte strings differ.
std::vector<std::uint8_t> runSceneBytes(const HomeScenes& home, bool memo,
                                        std::uint64_t* hits) {
  const radar::Frontend frontend(home.radar);
  const radar::Processor processor(home.radar);
  radar::ToneMemo toneMemo;
  radar::Frame frame;
  std::vector<std::uint8_t> bytes;
  const auto append = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  for (std::size_t f = 0; f < home.scenes.size(); ++f) {
    frontend.synthesizeInto(frame, home.scenes[f], home.times[f], 1001, f,
                            memo ? &toneMemo : nullptr);
    for (const auto& row : frame.samples) {
      append(row.data(), row.size() * sizeof(radar::Complex));
    }
    const radar::RangeAngleMap map = processor.process(frame);
    append(map.power.data(), map.power.size() * sizeof(double));
  }
  if (hits != nullptr) *hits = toneMemo.stats().hits;
  return bytes;
}

/// Engine-level identity surface: the service ledger bytes plus every
/// scenario's retained metric stream, raw field bytes appended in id
/// order.
std::string runEngineBytes() {
  service::FleetServiceConfig config = scaleConfig(16);
  service::FleetEngine engine(config);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 16; ++i) {
    ids.push_back(engine.submit(homeSubmission(i)).scenarioId);
  }
  engine.runUntilIdle(/*maxRounds=*/4096);
  std::string out = engine.ledger().serialize();
  for (const std::uint64_t id : ids) {
    for (const service::EpochMetrics& m : engine.metricsSince(id, 0)) {
      out.append(reinterpret_cast<const char*>(&m.epoch), sizeof(m.epoch));
      out.append(reinterpret_cast<const char*>(&m.framesSimulated),
                 sizeof(m.framesSimulated));
      out.append(reinterpret_cast<const char*>(&m.framesTotal),
                 sizeof(m.framesTotal));
      out.append(reinterpret_cast<const char*>(&m.framesDetected),
                 sizeof(m.framesDetected));
      out.append(reinterpret_cast<const char*>(&m.sumDistanceErrorM),
                 sizeof(m.sumDistanceErrorM));
      out.append(reinterpret_cast<const char*>(&m.sumAngleErrorDeg),
                 sizeof(m.sumAngleErrorDeg));
    }
  }
  return out;
}

/// Requires the frames and maps synthesized with a tone memo to be
/// memcmp-equal to the memo-less ones at every kernel level this host
/// runs, with real memo hits; a frame runs on its caller, so the pool
/// size does not reach them. Then requires an engine wave (ledger +
/// metric streams, every job with its memo) to be byte-identical on one
/// thread and on four. Restores the pool size and kernel level it found.
/// Returns true iff every check held.
bool runMemoIdentityGate() {
  namespace simd = rfp::common::simd;
  const simd::KernelLevel entryLevel = simd::activeKernelLevel();
  const HomeScenes home = recordHomeScenes();
  bool allOk = true;
  for (const simd::KernelLevel level : simd::availableKernelLevels()) {
    simd::setActiveKernelLevel(level);
    std::uint64_t hits = 0;
    const std::vector<std::uint8_t> memo = runSceneBytes(home, true, &hits);
    const std::vector<std::uint8_t> memoLess =
        runSceneBytes(home, false, nullptr);
    const bool ok = hits > 0 && !memo.empty() &&
                    memo.size() == memoLess.size() &&
                    std::memcmp(memo.data(), memoLess.data(), memo.size()) == 0;
    std::printf("  identity kernel=%-8s  %zu bytes  %llu memo hits  %s\n",
                simd::kernelLevelName(level), memo.size(),
                static_cast<unsigned long long>(hits),
                ok ? "bit-identical" : "DIVERGED");
    allOk = allOk && ok;
  }
  simd::setActiveKernelLevel(entryLevel);

  rfp::common::ThreadPool::setGlobalThreads(1);
  const std::string oneThread = runEngineBytes();
  rfp::common::ThreadPool::setGlobalThreads(4);
  const std::string fourThreads = runEngineBytes();
  rfp::common::ThreadPool::setGlobalThreads(0);  // back to RFP_THREADS / hw
  const bool engineOk = !oneThread.empty() && oneThread == fourThreads;
  std::printf(
      "  identity engine wave, 1 vs 4 threads (ledger + metric streams)  "
      "%s\n",
      engineOk ? "bit-identical" : "DIVERGED");
  return allOk && engineOk;
}

struct ChaosResult {
  std::map<std::uint64_t, std::vector<service::EpochMetrics>> healthyMetrics;
  std::string ledger;
  service::FleetCounters counters;
  std::size_t tierRecords = 0;
};

constexpr std::size_t kChaosHealthy = 16;

/// Chaos case: 16 healthy homes admitted first (ids 1..16 in submission
/// order, so their derived job seeds match the unperturbed run), three
/// rounds of quiet operation, then the mid-run injection: 4 poison + 4
/// stuck scenarios, queue filled to capacity, 4 high-priority arrivals
/// (shedding queued fillers) and 4 more that the full queue rejects.
/// \p withChaos false runs the identical healthy prefix alone.
ChaosResult runChaosCase(bool withChaos) {
  service::FleetServiceConfig config;
  config.maxActive = kChaosHealthy;
  config.queueCapacity = 24;
  config.epochFrames = 32;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 30.0;
  config.seed = 23;
  service::FleetEngine engine(config);

  std::vector<std::uint64_t> healthyIds;
  for (std::size_t i = 0; i < kChaosHealthy; ++i) {
    healthyIds.push_back(engine.submit(homeSubmission(i)).scenarioId);
  }
  for (int r = 0; r < 3; ++r) engine.step();

  if (withChaos) {
    for (std::size_t i = 0; i < 4; ++i) {
      service::ScenarioSubmission poison = homeSubmission(100 + i);
      poison.chaos.addEvent({1, fault::ScenarioFaultKind::kPoisonEpoch});
      engine.submit(std::move(poison));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      service::ScenarioSubmission stuck = homeSubmission(200 + i);
      stuck.chaos.addEvent({0, fault::ScenarioFaultKind::kStuckEpoch});
      engine.submit(std::move(stuck));
    }
    // Overload burst: fill the queue, then outrank it, then overflow it.
    for (std::size_t i = 0; engine.counters().queued < config.queueCapacity;
         ++i) {
      engine.submit(homeSubmission(300 + i));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      engine.submit(homeSubmission(400 + i, /*priority=*/5));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      engine.submit(homeSubmission(500 + i));  // queue still full: rejected
    }
  }

  engine.runUntilIdle(/*maxRounds=*/4096);

  ChaosResult out;
  for (const std::uint64_t id : healthyIds) {
    out.healthyMetrics[id] = engine.drainMetrics(id);
  }
  out.ledger = engine.ledger().serialize();
  out.counters = engine.counters();
  for (const auto& rec : engine.ledger().records()) {
    if (rec.isTierRecord) ++out.tierRecords;
  }
  return out;
}

bool metricsBitIdentical(const ChaosResult& a, const ChaosResult& b) {
  if (a.healthyMetrics.size() != b.healthyMetrics.size()) return false;
  for (const auto& [id, lhs] : a.healthyMetrics) {
    const auto it = b.healthyMetrics.find(id);
    if (it == b.healthyMetrics.end()) return false;
    const auto& rhs = it->second;
    if (lhs.size() != rhs.size()) return false;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      // Exact double comparison on purpose: chaos in neighboring slots
      // must not perturb a single bit of a healthy scenario's stream.
      if (lhs[i].epoch != rhs[i].epoch ||
          lhs[i].framesSimulated != rhs[i].framesSimulated ||
          lhs[i].framesTotal != rhs[i].framesTotal ||
          lhs[i].framesDetected != rhs[i].framesDetected ||
          lhs[i].sumDistanceErrorM != rhs[i].sumDistanceErrorM ||
          lhs[i].sumAngleErrorDeg != rhs[i].sumAngleErrorDeg) {
        return false;
      }
    }
  }
  return true;
}

void writeJson(const std::vector<ScaleResult>& scales,
               const ChaosResult& chaos, bool smoke, bool healthyIdentical,
               bool ledgerDeterministic, bool memoIdentity) {
  bench::JsonWriter json;
  json.beginObject()
      .field("scenario", "fleet-home")
      .field("smoke", smoke);
  bench::stampRunProvenance(json)
      .field("healthy_metrics_bit_identical", healthyIdentical)
      .field("service_ledger_deterministic", ledgerDeterministic)
      .field("memo_bit_identical", memoIdentity)
      .beginArray("scales");
  for (const ScaleResult& s : scales) {
    json.beginObject()
        .field("name", s.name)
        .field("scenarios", s.scenarios)
        .field("max_active", s.maxActive)
        .field("rounds", s.rounds)
        .field("elapsed_s", s.elapsedS)
        .field("scenarios_per_sec", s.scenariosPerSec)
        .field("p50_epoch_round_ms", s.p50RoundMs)
        .field("p99_epoch_round_ms", s.p99RoundMs)
        .field("p999_epoch_round_ms", s.p999RoundMs)
        .field("completed", s.counters.completed)
        .field("failed", s.counters.failed)
        .field("shed", s.counters.shed)
        .field("rejected", s.counters.rejected)
        .field("epochs_run", s.counters.epochsRun)
        .endObject();
  }
  json.endArray()
      .beginObject("chaos")
      .field("completed", chaos.counters.completed)
      .field("failed", chaos.counters.failed)
      .field("shed", chaos.counters.shed)
      .field("rejected", chaos.counters.rejected)
      .field("cancelled", chaos.counters.cancelled)
      .field("tier_transitions", chaos.tierRecords)
      .field("ledger_records", chaos.ledger.empty() ? 0 : 1)
      .endObject()
      .endObject();
  if (!json.writeFile(kOutputPath)) {
    throw std::runtime_error(std::string("cannot write ") + kOutputPath);
  }
}

int runSweep(bool smoke) {
  bench::printHeader(
      "Fleet scenario service: scale sweep + chaos (poison, stuck, "
      "overload)");

  std::vector<ScaleResult> scales;
  for (const std::size_t count : {std::size_t{10}, std::size_t{100},
                                  std::size_t{1000}}) {
    scales.push_back(runScale(count));
    const ScaleResult& s = scales.back();
    std::printf(
        "  %-12s rounds %-6zu %7.2f s  %8.1f scen/s  round p50 %7.2f ms  "
        "p99 %7.2f ms  p99.9 %7.2f ms  failed %zu  shed %zu\n",
        s.name.c_str(), s.rounds, s.elapsedS, s.scenariosPerSec,
        s.p50RoundMs, s.p99RoundMs, s.p999RoundMs, s.counters.failed,
        s.counters.shed);
  }

  std::printf("  running tone-memo identity gate ...\n");
  const bool memoIdentity = runMemoIdentityGate();

  std::printf("  running chaos case (x2 for ledger determinism) ...\n");
  const ChaosResult quiet = runChaosCase(/*withChaos=*/false);
  const ChaosResult chaos = runChaosCase(/*withChaos=*/true);
  const ChaosResult chaosRepeat = runChaosCase(/*withChaos=*/true);
  const bool healthyIdentical = metricsBitIdentical(quiet, chaos);
  const bool ledgerDeterministic =
      !chaos.ledger.empty() && chaos.ledger == chaosRepeat.ledger;
  std::printf(
      "  chaos        completed %zu  failed %zu  shed %zu  rejected %zu  "
      "tier transitions %zu\n",
      chaos.counters.completed, chaos.counters.failed, chaos.counters.shed,
      chaos.counters.rejected, chaos.tierRecords);

  writeJson(scales, chaos, smoke, healthyIdentical, ledgerDeterministic,
            memoIdentity);
  std::printf("\n  wrote %s\n", kOutputPath);

  // Acceptance shape checks (mirrors ISSUE/EXPERIMENTS.md):
  int status = 0;
  const auto check = [&status](bool ok, const char* what) {
    std::printf("  %s: %s\n", what, ok ? "holds" : "VIOLATED");
    if (!ok) status = 1;
  };
  for (const ScaleResult& s : scales) {
    check(s.counters.completed == s.scenarios && s.counters.failed == 0 &&
              s.counters.shed == 0,
          (s.name + " completes every scenario, zero failed/shed").c_str());
    check(s.scenariosPerSec > 0.0 && s.p99RoundMs > 0.0,
          (s.name + " reports throughput and latency percentiles").c_str());
  }
  check(chaos.counters.failed == 8,
        "chaos fails exactly the 4 poison + 4 stuck scenarios");
  check(chaos.counters.shed == 4 && chaos.counters.rejected == 4,
        "overload sheds the 4 outranked fillers and rejects the 4 overflow");
  check(chaos.tierRecords >= 3,
        "admission tier degradations are ledgered (accept->queue->shed->"
        "reject)");
  check(chaos.counters.completed >= kChaosHealthy,
        "every healthy scenario completes despite chaos neighbors");
  check(healthyIdentical,
        "healthy scenarios' metric streams bit-identical to unperturbed "
        "same-seed run");
  check(ledgerDeterministic,
        "service ledger byte-identical across two same-seed chaos runs");
  check(memoIdentity,
        "tone-memo frames and maps memcmp-equal to memo-less at 1/2/4 "
        "threads, sse2 + best kernel; engine wave equal at 1 and 4 threads");
  return status;
}

void BM_FleetEpochRound(benchmark::State& state) {
  service::FleetServiceConfig config = scaleConfig(16);
  service::FleetEngine engine(config);
  for (std::size_t i = 0; i < 16; ++i) engine.submit(homeSubmission(i));
  for (auto _ : state) {
    if (engine.idle()) {  // resubmit once a wave drains
      state.PauseTiming();
      for (std::size_t i = 0; i < 16; ++i) engine.submit(homeSubmission(i));
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_FleetEpochRound)->Unit(benchmark::kMillisecond)->Iterations(20);

}  // namespace

int main(int argc, char** argv) {
  // --identity runs only the tone-memo bit-identity gate (the fast
  // CI-matrix entry point); --smoke runs the full sweep minus the
  // google-benchmark timing loop.
  if (argc > 1 && std::strcmp(argv[1], "--identity") == 0) {
    bench::printHeader("Fleet tone-memo identity gate");
    const bool ok = runMemoIdentityGate();
    std::printf("  identity gate: %s\n", ok ? "holds" : "VIOLATED");
    return ok ? 0 : 1;
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runSweep(smoke);
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
