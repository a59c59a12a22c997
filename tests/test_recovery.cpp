/// Crash-safety tests of the fleet service durability layer: journal and
/// snapshot codecs, scripted storage faults (torn writes, bit flips,
/// fsync failure, ENOSPC), clean-stop and kill-anywhere recovery, and
/// protocol-level client session resume.
///
/// The kill-anywhere harness is the acceptance gate of DESIGN.md Sec. 12:
/// a fork()ed child runs the durable engine with the storage fault
/// injector armed to SIGKILL at one physical storage op; the parent
/// recovers from the dead child's directory, resubmits whatever the
/// journal never saw, runs to idle, and requires a byte-identical ledger
/// and bit-identical metric streams against an uninterrupted same-seed
/// run -- for every kill point.

#include "service/fleet_engine.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/thread_pool.h"
#include "fault/storage_fault.h"
#include "service/journal.h"
#include "service/protocol.h"
#include "service/scenario_job.h"
#include "service/service_ledger.h"
#include "service/snapshot.h"
#include "transport/service_wire.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define RFP_HAVE_FORK 1
#endif

namespace rfp::service {
namespace {

namespace fs = std::filesystem;

std::string tempDir(const std::string& name) {
  const std::string dir = rfp::test::tempPath(name);
  fs::remove_all(dir);
  return dir;
}

constexpr const char* kCheapScenario = R"(
room.name = cheap
radar.sample_rate = 128000
radar.antennas = 5
panel.count = 4
)";

FleetServiceConfig durableConfig(const std::string& dir) {
  FleetServiceConfig config;
  config.maxActive = 2;
  config.queueCapacity = 4;
  config.epochFrames = 64;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 0.0;  // no watchdog thread (fork safety)
  config.seed = 7;
  config.durability.dir = dir;
  config.durability.snapshotEveryRounds = 3;
  config.durability.retainMetricsEpochs = 256;
  return config;
}

std::vector<ScenarioSubmission> sweepSubmissions() {
  std::vector<ScenarioSubmission> subs;
  for (int i = 0; i < 3; ++i) {
    ScenarioSubmission s;
    s.name = "home-" + std::to_string(i);
    s.scenarioText = kCheapScenario;
    s.priority = i == 2 ? 1 : 0;
    s.seed = 11 + static_cast<std::uint64_t>(i) * 31;
    subs.push_back(std::move(s));
  }
  return subs;
}

bool metricsEq(const EpochMetrics& a, const EpochMetrics& b) {
  return a.epoch == b.epoch && a.framesSimulated == b.framesSimulated &&
         a.framesTotal == b.framesTotal &&
         a.framesDetected == b.framesDetected &&
         a.sumDistanceErrorM == b.sumDistanceErrorM &&
         a.sumAngleErrorDeg == b.sumAngleErrorDeg;
}

/// Final observable surface of one run: the full ledger bytes plus every
/// scenario's retained metric history.
struct RunCapture {
  std::string ledger;
  std::vector<std::vector<EpochMetrics>> streams;
};

RunCapture captureRun(FleetEngine& engine, std::size_t nScenarios) {
  RunCapture c;
  c.ledger = engine.ledger().serialize();
  for (std::uint64_t id = 1; id <= nScenarios; ++id) {
    c.streams.push_back(engine.metricsSince(id, 0));
  }
  return c;
}

void expectSameRun(const RunCapture& got, const RunCapture& want,
                   const std::string& where) {
  EXPECT_EQ(got.ledger, want.ledger) << where << ": ledger diverged";
  ASSERT_EQ(got.streams.size(), want.streams.size()) << where;
  for (std::size_t i = 0; i < want.streams.size(); ++i) {
    ASSERT_EQ(got.streams[i].size(), want.streams[i].size())
        << where << ": scenario " << i + 1 << " stream length";
    for (std::size_t e = 0; e < want.streams[i].size(); ++e) {
      EXPECT_TRUE(metricsEq(got.streams[i][e], want.streams[i][e]))
          << where << ": scenario " << i + 1 << " epoch " << e
          << " metrics diverged";
    }
  }
}

/// Uninterrupted durable reference run in \p dir.
RunCapture referenceRun(const std::string& dir) {
  FleetEngine engine(durableConfig(dir));
  for (const auto& s : sweepSubmissions()) engine.submit(s);
  engine.runUntilIdle(64);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.counters().completed, 3u);
  return captureRun(engine, 3);
}

// ---------------------------------------------------------------------------
// Journal codec + tail handling
// ---------------------------------------------------------------------------

JournalRecord sampleSubmitRecord() {
  JournalRecord rec;
  rec.kind = JournalRecordKind::kSubmit;
  rec.submit.scenarioId = 7;
  rec.submit.name = "home-7";
  rec.submit.priority = -2;
  rec.submit.jobSeed = 0xdeadbeefull;
  rec.submit.scenarioText = kCheapScenario;
  rec.submit.chaos.push_back({3, fault::ScenarioFaultKind::kPoisonEpoch});
  JournalLedgerEntry tier;
  tier.record.round = 4;
  tier.record.isTierRecord = true;
  tier.record.tier = AdmissionTier::kQueue;
  tier.record.reason = "shard full";
  rec.ledger.push_back(tier);
  JournalLedgerEntry queued;
  queued.record.round = 4;
  queued.record.scenarioId = 7;
  queued.record.priority = -2;
  queued.record.state = ScenarioState::kQueued;
  queued.record.reason = "queued behind 1";
  rec.ledger.push_back(queued);
  return rec;
}

JournalRecord sampleRoundRecord() {
  JournalRecord rec;
  rec.kind = JournalRecordKind::kRound;
  rec.round = 12;
  rec.participants.push_back({3, 5});
  rec.participants.push_back({7, 1});
  JournalLedgerEntry done;
  done.record.round = 12;
  done.record.scenarioId = 3;
  done.record.state = ScenarioState::kCompleted;
  done.record.reason = "trace exhausted after 5 epochs";
  done.hasSummary = true;
  done.summary.framesTotal = 320;
  done.summary.framesDetected = 280;
  done.summary.medianDistanceErrorM = 1.25;
  done.summary.medianLocationErrorM = 2.5;
  rec.ledger.push_back(done);
  return rec;
}

TEST(JournalCodec, SubmitRecordRoundTrips) {
  const JournalRecord rec = sampleSubmitRecord();
  const auto decoded = decodeJournalRecord(encodeJournalRecord(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, JournalRecordKind::kSubmit);
  EXPECT_EQ(decoded->submit.scenarioId, 7u);
  EXPECT_EQ(decoded->submit.name, "home-7");
  EXPECT_EQ(decoded->submit.priority, -2);
  EXPECT_EQ(decoded->submit.jobSeed, 0xdeadbeefull);
  EXPECT_EQ(decoded->submit.scenarioText, kCheapScenario);
  ASSERT_EQ(decoded->submit.chaos.size(), 1u);
  EXPECT_EQ(decoded->submit.chaos[0].epoch, 3u);
  ASSERT_EQ(decoded->ledger.size(), 2u);
  EXPECT_TRUE(decoded->ledger[0].record.isTierRecord);
  EXPECT_EQ(decoded->ledger[0].record.tier, AdmissionTier::kQueue);
  EXPECT_EQ(decoded->ledger[1].record.state, ScenarioState::kQueued);
  EXPECT_EQ(decoded->ledger[1].record.reason, "queued behind 1");
}

TEST(JournalCodec, RoundRecordRoundTrips) {
  const JournalRecord rec = sampleRoundRecord();
  const auto decoded = decodeJournalRecord(encodeJournalRecord(rec));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, JournalRecordKind::kRound);
  EXPECT_EQ(decoded->round, 12u);
  ASSERT_EQ(decoded->participants.size(), 2u);
  EXPECT_EQ(decoded->participants[0].scenarioId, 3u);
  EXPECT_EQ(decoded->participants[0].epochsDone, 5u);
  ASSERT_EQ(decoded->ledger.size(), 1u);
  ASSERT_TRUE(decoded->ledger[0].hasSummary);
  EXPECT_EQ(decoded->ledger[0].summary.framesTotal, 320u);
  EXPECT_EQ(decoded->ledger[0].summary.medianLocationErrorM, 2.5);
}

TEST(JournalCodec, RejectsTruncationTrailingBytesAndBadKind) {
  const std::string good = encodeJournalRecord(sampleRoundRecord());
  EXPECT_FALSE(decodeJournalRecord(good.substr(0, good.size() - 1)));
  EXPECT_FALSE(decodeJournalRecord(good + "x"));
  std::string badKind = good;
  badKind[0] = 9;  // unknown kind tag
  EXPECT_FALSE(decodeJournalRecord(badKind));
  EXPECT_FALSE(decodeJournalRecord(""));
}

TEST(Journal, WriterFramesAndReaderRecoversAllRecords) {
  const std::string dir = tempDir("journal-roundtrip");
  fs::create_directories(dir);
  JournalWriter writer(dir, 0, /*truncate=*/true, nullptr);
  writer.append(sampleSubmitRecord());
  writer.append(sampleRoundRecord());
  writer.sync();

  const JournalReadResult read = readJournal(writer.path());
  EXPECT_FALSE(read.tornTail);
  EXPECT_FALSE(read.corrupt);
  ASSERT_EQ(read.records.size(), 2u);
  EXPECT_EQ(read.records[0].kind, JournalRecordKind::kSubmit);
  EXPECT_EQ(read.records[1].kind, JournalRecordKind::kRound);
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  const std::string dir = tempDir("journal-torn");
  fs::create_directories(dir);
  JournalWriter writer(dir, 0, /*truncate=*/true, nullptr);
  writer.append(sampleRoundRecord());
  writer.sync();
  {
    // A crash mid-append: 6 bytes of a new record's 8-byte header.
    std::ofstream out(writer.path(), std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xff\xff", 6);
  }
  const JournalReadResult read = readJournal(writer.path());
  EXPECT_TRUE(read.tornTail);
  EXPECT_FALSE(read.corrupt);
  ASSERT_EQ(read.records.size(), 1u);
}

TEST(Journal, CorruptCompleteRecordStopsReplay) {
  const std::string dir = tempDir("journal-corrupt");
  fs::create_directories(dir);
  JournalWriter writer(dir, 0, /*truncate=*/true, nullptr);
  writer.append(sampleRoundRecord());
  writer.append(sampleSubmitRecord());
  writer.sync();
  {
    // Flip a payload byte of the *first* record (offset 8 = first payload
    // byte): a complete record failing its CRC is corruption.
    std::fstream f(writer.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(8);
    char byte = 0;
    f.get(byte);
    f.seekp(8);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  const JournalReadResult read = readJournal(writer.path());
  EXPECT_TRUE(read.corrupt);
  EXPECT_EQ(read.records.size(), 0u);
  EXPECT_NE(read.detail.find("CRC"), std::string::npos) << read.detail;
}

TEST(Journal, MissingFileReadsEmptyAndClean) {
  const JournalReadResult read =
      readJournal(rfp::test::tempPath("does-not-exist.wal"));
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.tornTail);
  EXPECT_FALSE(read.corrupt);
}

// ---------------------------------------------------------------------------
// Snapshot codec + rotation
// ---------------------------------------------------------------------------

EngineSnapshot sampleSnapshot() {
  EngineSnapshot snap;
  snap.generation = 3;
  snap.round = 17;
  snap.nextId = 5;
  snap.lastTier = AdmissionTier::kQueue;
  snap.epochsRun = 40;
  snap.completed = 2;
  ServiceLedgerRecord rec;
  rec.round = 1;
  rec.scenarioId = 1;
  rec.state = ScenarioState::kActive;
  rec.reason = "accepted";
  snap.ledger.push_back(rec);
  SlotSnapshot slot;
  slot.id = 4;
  slot.name = "mid-flight";
  slot.jobSeed = 99;
  slot.scenarioText = kCheapScenario;
  slot.state = ScenarioState::kActive;
  slot.epochsDone = 6;
  EpochMetrics m;
  m.epoch = 5;
  m.framesSimulated = 64;
  m.sumDistanceErrorM = 3.5;
  slot.history.push_back(m);
  snap.active.push_back(slot);
  return snap;
}

TEST(Snapshot, RoundTripsThroughCodec) {
  const EngineSnapshot snap = sampleSnapshot();
  const EngineSnapshot back = decodeSnapshot(encodeSnapshot(snap));
  EXPECT_EQ(back.generation, 3u);
  EXPECT_EQ(back.round, 17u);
  EXPECT_EQ(back.nextId, 5u);
  EXPECT_EQ(back.lastTier, AdmissionTier::kQueue);
  EXPECT_EQ(back.epochsRun, 40u);
  ASSERT_EQ(back.ledger.size(), 1u);
  EXPECT_EQ(back.ledger[0].reason, "accepted");
  ASSERT_EQ(back.active.size(), 1u);
  EXPECT_EQ(back.active[0].name, "mid-flight");
  EXPECT_EQ(back.active[0].epochsDone, 6u);
  ASSERT_EQ(back.active[0].history.size(), 1u);
  EXPECT_EQ(back.active[0].history[0].epoch, 5u);
  EXPECT_EQ(back.active[0].history[0].sumDistanceErrorM, 3.5);
}

TEST(Snapshot, DecodeRejectsGarbage) {
  EXPECT_THROW(decodeSnapshot("not a snapshot"), std::runtime_error);
  std::string truncated = encodeSnapshot(sampleSnapshot());
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(decodeSnapshot(truncated), std::runtime_error);
}

TEST(Snapshot, CorruptPrimaryFallsBackToBakGeneration) {
  const std::string dir = tempDir("snapshot-bak");
  fs::create_directories(dir);
  EngineSnapshot gen0 = sampleSnapshot();
  gen0.generation = 0;
  saveSnapshot(dir, gen0, nullptr);
  EngineSnapshot gen1 = sampleSnapshot();
  gen1.generation = 1;
  saveSnapshot(dir, gen1, nullptr);

  SnapshotLoadResult clean = loadSnapshot(dir);
  EXPECT_FALSE(clean.usedBackup);
  EXPECT_EQ(clean.snapshot.generation, 1u);

  {
    // Truncate the primary: its integrity trailer no longer verifies.
    std::ofstream out(snapshotPath(dir), std::ios::binary | std::ios::trunc);
    out << "stomped";
  }
  SnapshotLoadResult fallback = loadSnapshot(dir);
  EXPECT_TRUE(fallback.usedBackup);
  EXPECT_EQ(fallback.snapshot.generation, 0u);
}

// ---------------------------------------------------------------------------
// Segmented ledger persistence (size-capped rotation, per-segment CRC)
// ---------------------------------------------------------------------------

TEST(SegmentedLedger, RotatesBySizeAndRoundTrips) {
  ServiceLedger ledger;
  for (int i = 0; i < 40; ++i) {
    ServiceLedgerRecord rec;
    rec.round = static_cast<std::uint64_t>(i);
    rec.scenarioId = static_cast<std::uint64_t>(i % 5 + 1);
    rec.state = ScenarioState::kActive;
    rec.reason = "record number " + std::to_string(i);
    ledger.add(std::move(rec));
  }
  const std::string base = tempDir("ledger-segments") + "/fleet.ledger";
  fs::create_directories(fs::path(base).parent_path());
  const std::size_t segments = ledger.saveSegmented(base, 512);
  EXPECT_GT(segments, 1u);
  EXPECT_EQ(ServiceLedger::loadSegmentedSerialized(base), ledger.serialize());
}

TEST(SegmentedLedger, CorruptSegmentIsDetected) {
  ServiceLedger ledger;
  for (int i = 0; i < 20; ++i) {
    ServiceLedgerRecord rec;
    rec.round = static_cast<std::uint64_t>(i);
    rec.reason = "padding padding padding " + std::to_string(i);
    ledger.add(std::move(rec));
  }
  const std::string base = tempDir("ledger-segments-bad") + "/fleet.ledger";
  fs::create_directories(fs::path(base).parent_path());
  const std::size_t segments = ledger.saveSegmented(base, 256);
  ASSERT_GT(segments, 1u);
  {
    std::fstream f(base + ".seg001",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(4);
    f.put('\xff');
  }
  EXPECT_THROW(ServiceLedger::loadSegmentedSerialized(base),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Recovery: clean stop, scripted storage faults, kill-anywhere sweep
// ---------------------------------------------------------------------------

TEST(Recovery, CleanStopMidRunResumesToIdenticalRun) {
  const RunCapture want = referenceRun(tempDir("recov-clean-ref"));

  const std::string dir = tempDir("recov-clean");
  {
    FleetEngine engine(durableConfig(dir));
    for (const auto& s : sweepSubmissions()) engine.submit(s);
    for (int i = 0; i < 4; ++i) engine.step();
    EXPECT_FALSE(engine.idle());
    // Engine destroyed mid-run; every round so far is journaled.
  }

  auto engine = FleetEngine::recover(durableConfig(dir));
  const RecoveryReport& rep = engine->recoveryReport();
  EXPECT_TRUE(rep.recovered);
  EXPECT_FALSE(rep.lossDetected) << rep.detail;
  EXPECT_FALSE(rep.tornTail) << rep.detail;
  EXPECT_GT(rep.replayedRecords, 0u);
  EXPECT_GT(rep.reExecutedEpochs, 0u);

  engine->runUntilIdle(64);
  ASSERT_TRUE(engine->idle());
  EXPECT_EQ(engine->counters().completed, 3u);
  expectSameRun(captureRun(*engine, 3), want, "clean stop");
  EXPECT_EQ(engine->ledger().serialize().find("RECOVERED"),
            std::string::npos);
}

TEST(Recovery, TornJournalTailLedgersExplicitRecoveredRecord) {
  const std::string dir = tempDir("recov-torn");
  {
    FleetEngine engine(durableConfig(dir));
    for (const auto& s : sweepSubmissions()) engine.submit(s);
    for (int i = 0; i < 4; ++i) engine.step();
  }
  // Simulated power loss mid-append: a partial record header on the
  // newest journal generation.
  std::string newest;
  for (std::uint64_t gen = 0; gen < 64; ++gen) {
    const std::string path = journalPath(dir, gen);
    if (fs::exists(path)) newest = path;
  }
  ASSERT_FALSE(newest.empty());
  {
    std::ofstream out(newest, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xff\xff", 6);
  }

  auto engine = FleetEngine::recover(durableConfig(dir));
  const RecoveryReport& rep = engine->recoveryReport();
  EXPECT_TRUE(rep.tornTail) << rep.detail;
  EXPECT_TRUE(rep.lossDetected);
  const std::string ledger = engine->ledger().serialize();
  EXPECT_NE(ledger.find("RECOVERED"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("recovered_from="), std::string::npos) << ledger;

  // Degraded, not dead: the shard still serves and finishes its work.
  engine->runUntilIdle(64);
  EXPECT_TRUE(engine->idle());
}

TEST(Recovery, BitFlippedJournalRecordIsCorruptionNotCrash) {
  const std::string dir = tempDir("recov-bitflip");
  FleetServiceConfig config = durableConfig(dir);
  config.durability.snapshotEveryRounds = 100;  // keep everything in gen 0
  {
    FleetEngine engine(config);
    for (const auto& s : sweepSubmissions()) engine.submit(s);
    for (int i = 0; i < 3; ++i) engine.step();
  }
  {
    // Silent on-medium corruption inside the first record's payload.
    std::fstream f(journalPath(dir, 0),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(10);
    char byte = 0;
    f.get(byte);
    f.seekp(10);
    f.put(static_cast<char>(byte ^ 0x10));
  }

  auto engine = FleetEngine::recover(config);
  const RecoveryReport& rep = engine->recoveryReport();
  EXPECT_TRUE(rep.lossDetected) << rep.detail;
  EXPECT_NE(engine->ledger().serialize().find("RECOVERED"),
            std::string::npos);
  // Truncated to the last durable state, but alive: new work still runs.
  ScenarioSubmission fresh;
  fresh.name = "post-recovery";
  fresh.scenarioText = kCheapScenario;
  fresh.seed = 5;
  const auto outcome = engine->submit(fresh);
  engine->runUntilIdle(64);
  EXPECT_EQ(engine->status(outcome.scenarioId).state,
            ScenarioState::kCompleted);
}

TEST(Recovery, EnospcDegradesDurabilityNotTheShard) {
  fault::StorageFaultScript script;
  for (std::uint64_t op = 0; op < 400; ++op) {
    script.addEvent({op, fault::StorageFaultKind::kEnospc});
  }
  fault::StorageFaultInjector injector(script, /*seed=*/3);
  const std::string dir = tempDir("recov-enospc");
  FleetEngine engine(durableConfig(dir), nullptr, &injector);
  EXPECT_TRUE(engine.durabilityDegraded());
  for (const auto& s : sweepSubmissions()) engine.submit(s);
  engine.runUntilIdle(64);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.counters().completed, 3u);
  EXPECT_NE(engine.ledger().serialize().find("durability degraded"),
            std::string::npos);
}

TEST(Recovery, MidRunFsyncFailureDegradesAndKeepsServing) {
  // Format + admissions succeed; from op 12 on every sync reports an IO
  // error, so the first round-boundary fsync after that degrades.
  fault::StorageFaultScript script;
  for (std::uint64_t op = 12; op < 400; ++op) {
    script.addEvent({op, fault::StorageFaultKind::kFsyncFail});
  }
  fault::StorageFaultInjector injector(script, /*seed=*/5);
  const std::string dir = tempDir("recov-fsyncfail");
  FleetEngine engine(durableConfig(dir), nullptr, &injector);
  for (const auto& s : sweepSubmissions()) engine.submit(s);
  engine.runUntilIdle(64);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.counters().completed, 3u);
  EXPECT_TRUE(engine.durabilityDegraded());
  EXPECT_NE(engine.ledger().serialize().find("durability degraded"),
            std::string::npos);
}

TEST(Recovery, TornLiveAppendDegradesAndKeepsServing) {
  fault::StorageFaultScript script;
  for (std::uint64_t op = 12; op < 400; ++op) {
    script.addEvent({op, fault::StorageFaultKind::kTornWrite});
  }
  fault::StorageFaultInjector injector(script, /*seed=*/9);
  const std::string dir = tempDir("recov-tornlive");
  FleetEngine engine(durableConfig(dir), nullptr, &injector);
  for (const auto& s : sweepSubmissions()) engine.submit(s);
  engine.runUntilIdle(64);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.counters().completed, 3u);
  EXPECT_TRUE(engine.durabilityDegraded());
}

#ifdef RFP_HAVE_FORK

/// Child half of the kill-anywhere harness: run the durable engine with
/// SIGKILL armed at storage op \p killOp. Never returns -- either the
/// injector kills the process mid-run or the run finishes and _exits 0.
[[noreturn]] void killSweepChild(const std::string& dir,
                                 std::uint64_t killOp) {
  fault::StorageFaultInjector injector;
  injector.killAtOp(killOp);
  // The forked child owns exactly one thread: an inline pool (size 1
  // spawns none) and no watchdog (disabled in durableConfig) keep it
  // from touching the parent's now-dead worker threads.
  rfp::common::ThreadPool pool(1);
  try {
    FleetEngine engine(durableConfig(dir), &pool, &injector);
    for (const auto& s : sweepSubmissions()) engine.submit(s);
    engine.runUntilIdle(64);
  } catch (...) {
    _exit(3);
  }
  _exit(0);
}

TEST(Recovery, KillAnywhereSweepYieldsByteIdenticalRuns) {
  // fork() safety: the sensing stack inside scenario jobs reaches the
  // process-wide pool, and a forked child inherits that pool object with
  // the parent's worker threads gone -- its parallelFor would then wait
  // forever (observed as a hang under RFP_THREADS=2). Force the global
  // pool inline for the whole sweep so no thread exists at fork time;
  // results are bit-identical at any thread count (DESIGN.md Sec. 8).
  rfp::common::ThreadPool::setGlobalThreads(1);
  const RunCapture want = referenceRun(tempDir("recov-sweep-ref"));
  const std::vector<ScenarioSubmission> subs = sweepSubmissions();

  // Count the physical storage ops of one uninterrupted run: the sweep
  // range. The op sequence is deterministic, so the child consumes the
  // same indices.
  std::uint64_t totalOps = 0;
  {
    fault::StorageFaultInjector counter;
    FleetEngine engine(durableConfig(tempDir("recov-sweep-count")), nullptr,
                       &counter);
    for (const auto& s : subs) engine.submit(s);
    engine.runUntilIdle(64);
    totalOps = counter.opCount();
  }
  ASSERT_GT(totalOps, 10u);

  // Sweep kill points across the whole op range (strided to keep test
  // time bounded; the stride still crosses format, submits, round
  // appends, syncs, and every snapshot rotation), always including the
  // first and final op.
  std::vector<std::uint64_t> killOps;
  const std::uint64_t stride = std::max<std::uint64_t>(1, totalOps / 16);
  for (std::uint64_t op = 0; op < totalOps; op += stride) {
    killOps.push_back(op);
  }
  if (killOps.back() != totalOps - 1) killOps.push_back(totalOps - 1);

  const std::string dir = tempDir("recov-sweep-kill");
  for (const std::uint64_t killOp : killOps) {
    SCOPED_TRACE("kill at storage op " + std::to_string(killOp));
    fs::remove_all(dir);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) killSweepChild(dir, killOp);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child should die by its own SIGKILL (status " << status << ")";

    auto engine = FleetEngine::recover(durableConfig(dir));
    const RecoveryReport& rep = engine->recoveryReport();
    EXPECT_FALSE(rep.lossDetected)
        << "clean kill must never read as corruption: " << rep.detail;

    // Whatever the journal never saw, the client-side harness resubmits
    // (ids are deterministic, so the replayed admission sequence -- and
    // with it the ledger -- is unchanged).
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
    EXPECT_EQ(engine->counters().completed, 3u);
    expectSameRun(captureRun(*engine, 3), want,
                  "kill at op " + std::to_string(killOp));
  }
  rfp::common::ThreadPool::setGlobalThreads(0);  // restore environment sizing
}

#endif  // RFP_HAVE_FORK

// ---------------------------------------------------------------------------
// Protocol session resume
// ---------------------------------------------------------------------------

TEST(ResumeCodec, RequestAndAckRoundTripAndRejectMalformed) {
  ResumeRequest req;
  req.sessionId = 42;
  req.scenarioId = 7;
  req.lastAckedEpoch = 12;
  req.hasAcked = true;
  const auto reqBack = decodeResume(encodeResume(req));
  ASSERT_TRUE(reqBack.has_value());
  EXPECT_EQ(reqBack->version, kProtocolVersion);
  EXPECT_EQ(reqBack->sessionId, 42u);
  EXPECT_EQ(reqBack->scenarioId, 7u);
  EXPECT_EQ(reqBack->lastAckedEpoch, 12u);
  EXPECT_TRUE(reqBack->hasAcked);
  EXPECT_FALSE(decodeResume(encodeResume(req).substr(1)));

  ResumeAck ack;
  ack.sessionId = 42;
  ack.scenarioId = 7;
  ack.status = ResumeStatus::kGap;
  ack.replayedEpochs = 3;
  ack.firstEpochReplayed = 9;
  ack.gapFrom = 2;
  ack.gapTo = 8;
  const auto ackBack = decodeResumeAck(encodeResumeAck(ack));
  ASSERT_TRUE(ackBack.has_value());
  EXPECT_EQ(ackBack->status, ResumeStatus::kGap);
  EXPECT_EQ(ackBack->gapFrom, 2u);
  EXPECT_EQ(ackBack->gapTo, 8u);
  std::string badStatus = encodeResumeAck(ack);
  badStatus[16] = 17;  // status byte follows two u64 ids
  EXPECT_FALSE(decodeResumeAck(badStatus));
}

TEST(Resume, ReplaysOnlyUnseenEpochsExactlyOnce) {
  FleetServiceConfig config = durableConfig(tempDir("resume-basic"));
  FleetEngine engine(config);
  FleetService service(engine);
  ServiceClient client(service, transport::TransportConfig{}, /*seed=*/21);
  const transport::ChannelCondition clean{};

  ScenarioSubmission sub;
  sub.name = "resumable";
  sub.scenarioText = kCheapScenario;
  sub.seed = 11;
  const auto outcome = client.submit(sub, clean);
  ASSERT_TRUE(outcome.has_value());
  const std::uint64_t id = outcome->scenarioId;

  engine.step();
  engine.step();
  std::vector<EpochReport> seen;
  client.poll(id, clean, seen);
  ASSERT_EQ(seen.size(), 2u);
  ASSERT_TRUE(client.lastAckedEpoch(id).has_value());
  EXPECT_EQ(*client.lastAckedEpoch(id), 1u);

  engine.runUntilIdle(64);
  const auto ack = client.resume(id, clean, seen);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, ResumeStatus::kResumed);
  EXPECT_EQ(ack->sessionId, 21u);
  EXPECT_EQ(ack->firstEpochReplayed, 2u);

  // Exactly-once: epochs 0..N each appear once, terminal report last.
  ASSERT_GT(seen.size(), 2u);
  EXPECT_TRUE(seen.back().terminal);
  EXPECT_EQ(seen.back().finalState, ScenarioState::kCompleted);
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_FALSE(seen[i].terminal);
    EXPECT_EQ(seen[i].metrics.epoch, static_cast<std::uint64_t>(i));
  }
}

TEST(Resume, SurvivesServiceCrashAndRecoveryWithoutDuplicates) {
  const std::string dir = tempDir("resume-crash");
  const FleetServiceConfig config = durableConfig(dir);
  std::vector<EpochReport> seen;
  std::uint64_t id = 0;

  auto pre = std::make_unique<FleetEngine>(config);
  FleetService preService(*pre);
  ServiceClient client(preService, transport::TransportConfig{}, /*seed=*/33);
  {
    const transport::ChannelCondition clean{};
    ScenarioSubmission sub;
    sub.name = "crash-resume";
    sub.scenarioText = kCheapScenario;
    sub.seed = 17;
    const auto outcome = client.submit(sub, clean);
    ASSERT_TRUE(outcome.has_value());
    id = outcome->scenarioId;
    pre->step();
    pre->step();
    pre->step();
    client.poll(id, clean, seen);
    ASSERT_EQ(seen.size(), 3u);
  }
  pre.reset();  // service process "dies"; journal holds rounds 0..2

  auto post = FleetEngine::recover(config);
  post->runUntilIdle(64);
  ASSERT_TRUE(post->idle());
  FleetService postService(*post);
  client.rebind(postService);

  const transport::ChannelCondition clean{};
  const auto ack = client.resume(id, clean, seen);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, ResumeStatus::kResumed);
  // The recovered engine redelivers its whole retained history
  // (at-least-once); the session cursor must dedup epochs 0..2.
  ASSERT_GT(seen.size(), 3u);
  EXPECT_TRUE(seen.back().terminal);
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_EQ(seen[i].metrics.epoch, static_cast<std::uint64_t>(i))
        << "duplicate or missing epoch after crash resume";
  }
}

TEST(Resume, UnknownScenarioAndVersionMismatchAreExplicit) {
  FleetEngine engine(durableConfig(tempDir("resume-unknown")));
  FleetService service(engine);
  std::vector<EpochReport> replay;

  ResumeRequest unknown;
  unknown.scenarioId = 999;
  EXPECT_EQ(service.handleResume(unknown, replay).status,
            ResumeStatus::kUnknownScenario);
  EXPECT_TRUE(replay.empty());

  ResumeRequest future;
  future.version = kProtocolVersion + 1;
  future.scenarioId = 999;
  EXPECT_EQ(service.handleResume(future, replay).status,
            ResumeStatus::kVersionMismatch);
  EXPECT_TRUE(replay.empty());
}

TEST(Resume, ReconnectPastRetentionCapReportsExplicitGap) {
  FleetServiceConfig config = durableConfig(tempDir("resume-gap"));
  config.durability.retainMetricsEpochs = 2;
  FleetEngine engine(config);
  FleetService service(engine);

  ScenarioSubmission sub;
  sub.name = "gap";
  sub.scenarioText = kCheapScenario;
  sub.seed = 23;
  const auto outcome = engine.submit(sub);
  engine.runUntilIdle(64);
  const std::uint64_t done = engine.status(outcome.scenarioId).epochsCompleted;
  ASSERT_GT(done, 2u) << "scenario too short to trim history";

  // A client that never acked asks for everything from epoch 0; only the
  // last two epochs are retained.
  ResumeRequest req;
  req.scenarioId = outcome.scenarioId;
  std::vector<EpochReport> replay;
  const ResumeAck ack = service.handleResume(req, replay);
  EXPECT_EQ(ack.status, ResumeStatus::kGap);
  EXPECT_EQ(ack.gapFrom, 0u);
  EXPECT_EQ(ack.gapTo, done - 3);
  EXPECT_EQ(ack.replayedEpochs, 2u);
  EXPECT_EQ(ack.firstEpochReplayed, done - 2);
  // Replay = the two retained epochs plus the terminal report.
  ASSERT_EQ(replay.size(), 3u);
  EXPECT_TRUE(replay.back().terminal);
}

}  // namespace
}  // namespace rfp::service
