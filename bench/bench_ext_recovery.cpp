/// \file bench_ext_recovery.cpp
/// Extension benchmark: crash-safe durability of the fleet scenario
/// service (src/service journal + snapshot + recover()) at 10 / 100 /
/// 1000 scenarios.
///
/// Per scale (all go to BENCH_recovery.json):
///   - baseline: the sweep with durability disabled (no journal, no
///     snapshots) -- the cost floor.
///   - durable: the identical sweep with the write-ahead journal and
///     epoch snapshots on; the delta against baseline is the journal
///     overhead the durability layer charges a healthy shard.
///   - crash + recover: the durable sweep stopped dead halfway through
///     its rounds, rebuilt via FleetEngine::recover() (snapshot load +
///     journal-tail replay + deterministic re-execution of in-flight
///     scenarios), then run to completion. Reported: recovery latency,
///     journal records replayed, epochs re-executed, and durable bytes
///     on disk at the kill point.
///
/// The robustness gates (mirrors ISSUE/EXPERIMENTS.md): recovery must
/// detect no loss on a clean stop (no torn tail, no RECOVERED record),
/// and the recovered shard's *full* service ledger -- admissions before
/// the kill plus every transition after it -- must be byte-identical to
/// the uninterrupted durable run's ledger. Timing numbers are reported,
/// never gated: CI machines are noisy, byte-diffs are not.
///
/// `--smoke` runs the same sweep and skips only the google-benchmark
/// timing loop.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/fleet_engine.h"

namespace {

namespace fs = std::filesystem;
using namespace rfp;

constexpr const char* kOutputPath = "BENCH_recovery.json";

/// Cost-reduced deployment (the bench_ext_fleet radar floor: 8 samples x
/// 3 antennas per chirp) so the 1000-scenario sweep runs three times --
/// baseline, durable, crash+recover -- inside bench time.
constexpr const char* kHomeScenario = R"(
room.name = recovery-home
radar.sample_rate = 16000
radar.antennas = 3
panel.count = 4
)";

service::ScenarioSubmission homeSubmission(std::size_t index) {
  service::ScenarioSubmission s;
  s.name = "home-" + std::to_string(index);
  s.scenarioText = kHomeScenario;
  s.seed = 1000 + index;
  return s;
}

service::FleetServiceConfig scaleConfig(std::size_t scenarios,
                                        const fs::path& durabilityDir) {
  service::FleetServiceConfig config;
  config.maxActive = 16;
  config.queueCapacity = scenarios;  // clean sweep: nothing sheds
  config.epochFrames = 32;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 30.0;
  config.seed = 11;
  config.durability.dir = durabilityDir.empty() ? "" : durabilityDir.string();
  config.durability.snapshotEveryRounds = 8;
  config.durability.retainMetricsEpochs = 256;
  return config;
}

fs::path benchRoot() {
  return fs::temp_directory_path() / "rfp_bench_recovery";
}

std::uint64_t dirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

struct ScaleResult {
  std::string name;
  std::size_t scenarios = 0;
  std::size_t rounds = 0;
  double baselineS = 0.0;
  double durableS = 0.0;
  double journalOverheadPct = 0.0;
  std::uint64_t durableBytesAtKill = 0;
  double recoveryMs = 0.0;
  std::size_t replayedRecords = 0;
  std::uint64_t reExecutedEpochs = 0;
  bool lossDetected = false;
  bool tornTail = false;
  bool ledgerIdentical = false;
  service::FleetCounters recoveredCounters;
};

/// Submits the whole scale and runs to idle; returns elapsed seconds and
/// (optionally) the epoch rounds the sweep took.
double runToIdle(service::FleetEngine& engine, std::size_t scenarios,
                 std::size_t* rounds = nullptr) {
  for (std::size_t i = 0; i < scenarios; ++i) {
    engine.submit(homeSubmission(i));
  }
  bench::WallTimer timer;
  const std::size_t ran = engine.runUntilIdle(/*maxRounds=*/1 << 20);
  if (rounds != nullptr) *rounds = ran;
  return timer.elapsedS();
}

ScaleResult runScale(std::size_t scenarios) {
  ScaleResult out;
  out.name = "recover_" + std::to_string(scenarios);
  out.scenarios = scenarios;

  // Baseline: durability off.
  {
    service::FleetEngine engine(scaleConfig(scenarios, {}));
    out.baselineS = runToIdle(engine, scenarios);
  }

  // Durable uninterrupted run: the overhead sample and the ledger the
  // recovered run must reproduce byte-for-byte.
  const fs::path durableDir =
      benchRoot() / ("uninterrupted_" + std::to_string(scenarios));
  fs::create_directories(durableDir);
  std::string referenceLedger;
  {
    service::FleetEngine engine(scaleConfig(scenarios, durableDir));
    out.durableS = runToIdle(engine, scenarios, &out.rounds);
    referenceLedger = engine.ledger().serialize();
  }
  out.journalOverheadPct =
      out.baselineS > 0.0
          ? 100.0 * (out.durableS - out.baselineS) / out.baselineS
          : 0.0;

  // Crash run: same submissions, stopped dead halfway through the rounds
  // the uninterrupted run needed, then rebuilt via recover().
  const fs::path crashDir =
      benchRoot() / ("crash_" + std::to_string(scenarios));
  fs::create_directories(crashDir);
  const service::FleetServiceConfig crashConfig =
      scaleConfig(scenarios, crashDir);
  // Scheduling is deterministic, so the uninterrupted run's round count
  // tells us exactly where "halfway" is.
  const std::size_t fullRounds = out.rounds;
  {
    service::FleetEngine engine(crashConfig);
    for (std::size_t i = 0; i < scenarios; ++i) {
      engine.submit(homeSubmission(i));
    }
    for (std::size_t r = 0; r < fullRounds / 2 && !engine.idle(); ++r) {
      engine.step();
    }
    // Engine destructs here mid-run: the kill. Clean process death never
    // leaves a partial journal record (records are written atomically at
    // op entry), so recovery must see NO loss.
  }
  out.durableBytesAtKill = dirBytes(crashDir);

  bench::WallTimer recoverTimer;
  std::unique_ptr<service::FleetEngine> recovered =
      service::FleetEngine::recover(crashConfig);
  out.recoveryMs = recoverTimer.elapsedMs();
  const service::RecoveryReport& report = recovered->recoveryReport();
  out.replayedRecords = report.replayedRecords;
  out.reExecutedEpochs = report.reExecutedEpochs;
  out.lossDetected = report.lossDetected;
  out.tornTail = report.tornTail;

  recovered->runUntilIdle(/*maxRounds=*/1 << 20);
  out.recoveredCounters = recovered->counters();
  out.ledgerIdentical =
      !referenceLedger.empty() &&
      recovered->ledger().serialize() == referenceLedger;
  return out;
}

void writeJson(const std::vector<ScaleResult>& scales, bool smoke) {
  bench::JsonWriter json;
  json.beginObject()
      .field("scenario", "recovery-home")
      .field("smoke", smoke);
  bench::stampRunProvenance(json)
      .beginArray("scales");
  for (const ScaleResult& s : scales) {
    json.beginObject()
        .field("name", s.name)
        .field("scenarios", s.scenarios)
        .field("rounds", s.rounds)
        .field("baseline_s", s.baselineS)
        .field("durable_s", s.durableS)
        .field("journal_overhead_pct", s.journalOverheadPct)
        .field("durable_bytes_at_kill", s.durableBytesAtKill)
        .field("recovery_ms", s.recoveryMs)
        .field("replayed_records", s.replayedRecords)
        .field("reexecuted_epochs", s.reExecutedEpochs)
        .field("loss_detected", s.lossDetected)
        .field("torn_tail", s.tornTail)
        .field("post_recovery_ledger_identical", s.ledgerIdentical)
        .field("completed", s.recoveredCounters.completed)
        .field("failed", s.recoveredCounters.failed)
        .endObject();
  }
  json.endArray().endObject();
  if (!json.writeFile(kOutputPath)) {
    throw std::runtime_error(std::string("cannot write ") + kOutputPath);
  }
}

int runSweep(bool smoke) {
  bench::printHeader(
      "Crash-safe fleet service: journal overhead + kill/recover sweep");

  std::error_code ec;
  fs::remove_all(benchRoot(), ec);
  fs::create_directories(benchRoot());

  std::vector<ScaleResult> scales;
  for (const std::size_t count :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    scales.push_back(runScale(count));
    const ScaleResult& s = scales.back();
    std::printf(
        "  %-13s baseline %7.2f s  durable %7.2f s  overhead %+6.1f %%  "
        "recover %7.1f ms  replayed %-5zu re-exec epochs %llu\n",
        s.name.c_str(), s.baselineS, s.durableS, s.journalOverheadPct,
        s.recoveryMs, s.replayedRecords,
        static_cast<unsigned long long>(s.reExecutedEpochs));
  }

  writeJson(scales, smoke);
  std::printf("\n  wrote %s\n", kOutputPath);

  // Acceptance shape checks (byte-diffs gate; timings only report):
  int status = 0;
  const auto check = [&status](bool ok, const char* what) {
    std::printf("  %s: %s\n", what, ok ? "holds" : "VIOLATED");
    if (!ok) status = 1;
  };
  for (const ScaleResult& s : scales) {
    check(s.recoveredCounters.completed == s.scenarios &&
              s.recoveredCounters.failed == 0,
          (s.name + " completes every scenario after recovery").c_str());
    check(!s.lossDetected && !s.tornTail,
          (s.name + " clean kill recovers with zero detected loss").c_str());
    check(s.ledgerIdentical,
          (s.name +
           " post-recovery ledger byte-identical to uninterrupted run")
              .c_str());
    check(s.durableBytesAtKill > 0 && s.recoveryMs > 0.0,
          (s.name + " reports journal footprint and recovery latency")
              .c_str());
  }

  std::error_code cleanupEc;
  fs::remove_all(benchRoot(), cleanupEc);
  return status;
}

void BM_RecoverShard(benchmark::State& state) {
  const std::size_t scenarios = 10;
  const fs::path dir = benchRoot() / "bm_recover";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const service::FleetServiceConfig config = scaleConfig(scenarios, dir);
  {
    service::FleetEngine engine(config);
    for (std::size_t i = 0; i < scenarios; ++i) {
      engine.submit(homeSubmission(i));
    }
    for (int r = 0; r < 12 && !engine.idle(); ++r) engine.step();
  }
  for (auto _ : state) {
    // recover() rotates to a fresh generation each time, so repeated
    // recovery from the same directory is the steady-state restart cost.
    auto engine = service::FleetEngine::recover(config);
    benchmark::DoNotOptimize(engine->recoveryReport().replayedRecords);
  }
  fs::remove_all(dir, ec);
}
BENCHMARK(BM_RecoverShard)->Unit(benchmark::kMillisecond)->Iterations(10);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runSweep(smoke);
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
