#include "service/fleet_engine.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/det_hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/harness.h"
#include "core/scenario_config.h"
#include "service/protocol.h"
#include "service/scenario_job.h"
#include "service/service_ledger.h"
#include "trajectory/human_walk.h"
#include "transport/service_wire.h"

namespace rfp::service {
namespace {

using rfp::test::tempPath;

/// Cheap deployment for fleet tests: the new radar cost knobs cut one
/// chirp from 500 samples x 7 antennas to 64 x 5, so hundreds of
/// scenario epochs run in test time.
constexpr const char* kCheapScenario = R"(
room.name = cheap
radar.sample_rate = 128000
radar.antennas = 5
panel.count = 4
)";

FleetServiceConfig testConfig() {
  FleetServiceConfig config;
  config.maxActive = 4;
  config.queueCapacity = 4;
  config.epochFrames = 64;
  config.epochWorkBudget = 4096;
  config.watchdogWallDeadlineS = 120.0;  // never fires in regular tests
  config.seed = 7;
  return config;
}

ScenarioSubmission cheapSubmission(const std::string& name, int priority = 0,
                                   std::uint64_t seed = 1) {
  ScenarioSubmission s;
  s.name = name;
  s.scenarioText = kCheapScenario;
  s.priority = priority;
  s.seed = seed;
  return s;
}

TEST(FleetService, RunsScenariosToCompletionAndStreamsMetrics) {
  FleetEngine engine(testConfig());
  const auto a = engine.submit(cheapSubmission("home-a", 0, 11));
  const auto b = engine.submit(cheapSubmission("home-b", 0, 22));
  EXPECT_EQ(a.tier, AdmissionTier::kAccept);
  EXPECT_EQ(b.tier, AdmissionTier::kAccept);

  engine.runUntilIdle(/*maxRounds=*/64);
  ASSERT_TRUE(engine.idle());

  for (const auto id : {a.scenarioId, b.scenarioId}) {
    const ScenarioStatus st = engine.status(id);
    EXPECT_EQ(st.state, ScenarioState::kCompleted) << st.reason;
    EXPECT_GT(st.epochsCompleted, 1u);
    EXPECT_GT(st.summary.framesTotal, 0u);

    const auto metrics = engine.drainMetrics(id);
    ASSERT_FALSE(metrics.empty());
    std::size_t frames = 0;
    for (const auto& m : metrics) frames += m.framesSimulated;
    EXPECT_GT(frames, 100u);  // the whole 10 s trace was simulated
  }
  const FleetCounters c = engine.counters();
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(c.active, 0u);
}

TEST(FleetService, AdmissionDegradesThroughTiersAndLedgersEverything) {
  FleetServiceConfig config = testConfig();
  config.maxActive = 1;
  config.queueCapacity = 2;
  FleetEngine engine(config);

  const auto s1 = engine.submit(cheapSubmission("first"));
  const auto s2 = engine.submit(cheapSubmission("second"));
  const auto s3 = engine.submit(cheapSubmission("third"));
  const auto s4 = engine.submit(cheapSubmission("fourth"));
  const auto s5 = engine.submit(cheapSubmission("urgent", /*priority=*/5));

  EXPECT_EQ(s1.tier, AdmissionTier::kAccept);
  EXPECT_EQ(s2.tier, AdmissionTier::kQueue);
  EXPECT_EQ(s3.tier, AdmissionTier::kQueue);
  EXPECT_EQ(s4.tier, AdmissionTier::kRejectNew);
  EXPECT_EQ(s4.state, ScenarioState::kRejected);
  EXPECT_EQ(s5.tier, AdmissionTier::kShedLowest);
  EXPECT_EQ(s5.state, ScenarioState::kQueued);

  // The urgent arrival shed the youngest equal-lowest-priority scenario.
  EXPECT_EQ(engine.status(s3.scenarioId).state, ScenarioState::kShed);
  EXPECT_EQ(engine.status(s2.scenarioId).state, ScenarioState::kQueued);
  EXPECT_EQ(engine.counters().shed, 1u);
  EXPECT_EQ(engine.counters().rejected, 1u);

  const std::string ledger = engine.ledger().serialize();
  EXPECT_NE(ledger.find("tier=queue"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("tier=reject_new"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("tier=shed_lowest"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("state=shed"), std::string::npos) << ledger;
  EXPECT_NE(ledger.find("state=rejected"), std::string::npos) << ledger;

  // The queue drains in priority order: urgent runs before "second".
  engine.runUntilIdle(/*maxRounds=*/64);
  EXPECT_EQ(engine.status(s5.scenarioId).state, ScenarioState::kCompleted);
  EXPECT_EQ(engine.status(s2.scenarioId).state, ScenarioState::kCompleted);
}

TEST(FleetService, PoisonEpochFailsContainedWithFileLine) {
  FleetEngine engine(testConfig());
  ScenarioSubmission poisoned = cheapSubmission("poisoned");
  poisoned.chaos.addEvent({1, fault::ScenarioFaultKind::kPoisonEpoch});
  const auto bad = engine.submit(poisoned);
  const auto good = engine.submit(cheapSubmission("healthy"));

  engine.runUntilIdle(/*maxRounds=*/64);

  const ScenarioStatus badSt = engine.status(bad.scenarioId);
  EXPECT_EQ(badSt.state, ScenarioState::kFailed);
  EXPECT_NE(badSt.reason.find("poison"), std::string::npos) << badSt.reason;
  EXPECT_NE(badSt.reason.find("scenario_job.cpp:"), std::string::npos)
      << badSt.reason;

  // Containment: the healthy neighbor finished untouched.
  EXPECT_EQ(engine.status(good.scenarioId).state, ScenarioState::kCompleted);
  EXPECT_EQ(engine.counters().failed, 1u);
}

TEST(FleetService, StuckEpochTrippedByDeterministicWorkBudget) {
  FleetEngine engine(testConfig());
  ScenarioSubmission stuck = cheapSubmission("stuck");
  stuck.chaos.addEvent({0, fault::ScenarioFaultKind::kStuckEpoch});
  const auto id = engine.submit(stuck).scenarioId;
  engine.step();
  const ScenarioStatus st = engine.status(id);
  EXPECT_EQ(st.state, ScenarioState::kFailed);
  EXPECT_NE(st.reason.find("epoch work budget exceeded"), std::string::npos)
      << st.reason;
}

TEST(FleetService, AllocFailureContained) {
  FleetEngine engine(testConfig());
  ScenarioSubmission oom = cheapSubmission("oom");
  oom.chaos.addEvent({0, fault::ScenarioFaultKind::kAllocFailure});
  const auto id = engine.submit(oom).scenarioId;
  engine.step();
  const ScenarioStatus st = engine.status(id);
  EXPECT_EQ(st.state, ScenarioState::kFailed);
  EXPECT_NE(st.reason.find("std::bad_alloc"), std::string::npos)
      << st.reason;
}

TEST(FleetService, MalformedScenarioTextFailsWithLoaderDiagnostic) {
  FleetEngine engine(testConfig());
  ScenarioSubmission bad;
  bad.name = "bad.scenario";
  bad.scenarioText = "room.width = very wide\n";
  const auto id = engine.submit(bad).scenarioId;
  engine.step();
  const ScenarioStatus st = engine.status(id);
  EXPECT_EQ(st.state, ScenarioState::kFailed);
  // The loader's source:line diagnostic became the FAILED reason.
  EXPECT_NE(st.reason.find("bad.scenario:1"), std::string::npos)
      << st.reason;
}

TEST(FleetService, HealthyScenarioMetricsBitIdenticalUnderChaos) {
  // Quiet fleet: two healthy scenarios alone.
  FleetEngine quiet(testConfig());
  const auto qa = quiet.submit(cheapSubmission("home-a", 0, 101));
  const auto qb = quiet.submit(cheapSubmission("home-b", 0, 202));
  quiet.runUntilIdle(/*maxRounds=*/64);

  // Chaos fleet: the same two submissions first (same ids -> same derived
  // job seeds), then a poison and a stuck scenario churning next to them.
  FleetEngine chaotic(testConfig());
  const auto ca = chaotic.submit(cheapSubmission("home-a", 0, 101));
  const auto cb = chaotic.submit(cheapSubmission("home-b", 0, 202));
  ScenarioSubmission poison = cheapSubmission("poison", 0, 303);
  poison.chaos.addEvent({0, fault::ScenarioFaultKind::kPoisonEpoch});
  chaotic.submit(poison);
  ScenarioSubmission stuck = cheapSubmission("stuck", 0, 404);
  stuck.chaos.addEvent({1, fault::ScenarioFaultKind::kStuckEpoch});
  chaotic.submit(stuck);
  chaotic.runUntilIdle(/*maxRounds=*/64);

  ASSERT_EQ(qa.scenarioId, ca.scenarioId);
  ASSERT_EQ(qb.scenarioId, cb.scenarioId);
  for (const auto id : {qa.scenarioId, qb.scenarioId}) {
    const auto quietMetrics = quiet.drainMetrics(id);
    const auto chaosMetrics = chaotic.drainMetrics(id);
    ASSERT_EQ(quietMetrics.size(), chaosMetrics.size());
    for (std::size_t i = 0; i < quietMetrics.size(); ++i) {
      EXPECT_EQ(quietMetrics[i].framesSimulated,
                chaosMetrics[i].framesSimulated);
      EXPECT_EQ(quietMetrics[i].framesDetected,
                chaosMetrics[i].framesDetected);
      // Bit-identical, not approximately equal: chaos must not perturb a
      // single double in a healthy scenario's stream.
      EXPECT_EQ(quietMetrics[i].sumDistanceErrorM,
                chaosMetrics[i].sumDistanceErrorM);
      EXPECT_EQ(quietMetrics[i].sumAngleErrorDeg,
                chaosMetrics[i].sumAngleErrorDeg);
    }
  }
}

/// Raw field bytes of a metric stream, in stream order: the byte-level
/// comparison surface of the pool-size identity test.
std::string streamBytes(const std::vector<EpochMetrics>& stream) {
  std::string out;
  const auto append = [&out](const auto& field) {
    out.append(reinterpret_cast<const char*>(&field), sizeof(field));
  };
  for (const EpochMetrics& m : stream) {
    append(m.epoch);
    append(m.framesSimulated);
    append(m.framesTotal);
    append(m.framesDetected);
    append(m.sumDistanceErrorM);
    append(m.sumAngleErrorDeg);
  }
  return out;
}

TEST(FleetService, OutputIdenticalAtTwoPoolSizesAndToSerialJobs) {
  // Three healthy homes, a poison job and a stuck chaos job; five
  // submissions against four active slots, so one waits in the queue.
  std::vector<ScenarioSubmission> submissions = {
      cheapSubmission("home-a", 0, 101), cheapSubmission("home-b", 0, 202),
      cheapSubmission("home-c", 0, 303)};
  constexpr std::size_t kHealthy = 3;
  submissions.push_back(cheapSubmission("poison", 0, 404));
  submissions.back().chaos.addEvent(
      {1, fault::ScenarioFaultKind::kPoisonEpoch});
  submissions.push_back(cheapSubmission("stuck", 0, 505));
  submissions.back().chaos.addEvent(
      {0, fault::ScenarioFaultKind::kStuckEpoch});

  struct Output {
    std::vector<std::uint64_t> ids;
    std::string ledger;
    std::vector<std::string> streams;
  };
  const auto run = [&submissions](std::size_t workers) {
    rfp::common::ThreadPool pool(workers);
    FleetEngine engine(testConfig(), &pool);
    Output out;
    for (const ScenarioSubmission& s : submissions) {
      out.ids.push_back(engine.submit(s).scenarioId);
    }
    engine.runUntilIdle(/*maxRounds=*/64);
    EXPECT_TRUE(engine.idle());
    out.ledger = engine.ledger().serialize();
    for (const std::uint64_t id : out.ids) {
      out.streams.push_back(streamBytes(engine.drainMetrics(id)));
    }
    return out;
  };
  const Output one = run(1);
  const Output four = run(4);
  ASSERT_EQ(one.ids, four.ids);
  EXPECT_NE(one.ledger.find("state=failed"), std::string::npos) << one.ledger;
  EXPECT_EQ(one.ledger, four.ledger);
  for (std::size_t i = 0; i < submissions.size(); ++i) {
    EXPECT_EQ(one.streams[i], four.streams[i]) << submissions[i].name;
  }

  // Each healthy stream is the job's own serial epoch loop, seeded the
  // way the engine derives job seeds (stream 41 of the engine seed and
  // the admission id, xor the submission seed).
  const FleetServiceConfig config = testConfig();
  for (std::size_t i = 0; i < kHealthy; ++i) {
    const std::uint64_t jobSeed =
        rfp::common::hashBits(config.seed, one.ids[i], 41) ^
        submissions[i].seed;
    const auto job = makeSpoofScenarioJob(kCheapScenario, submissions[i].name,
                                          jobSeed, config.epochFrames);
    std::vector<EpochMetrics> serial;
    while (!job->done()) {
      EpochContext ctx(config.epochWorkBudget);
      serial.push_back(job->runEpoch(ctx));
    }
    ASSERT_GT(serial.size(), 1u);
    EXPECT_EQ(streamBytes(serial), one.streams[i]) << submissions[i].name;
  }
}

TEST(FleetService, LedgerByteIdenticalAcrossSameSeedRuns) {
  const auto run = [] {
    FleetServiceConfig config = testConfig();
    config.maxActive = 2;
    config.queueCapacity = 2;
    FleetEngine engine(config);
    engine.submit(cheapSubmission("a", 0, 1));
    engine.submit(cheapSubmission("b", 1, 2));
    ScenarioSubmission poison = cheapSubmission("poison", 0, 3);
    poison.chaos.addEvent({1, fault::ScenarioFaultKind::kPoisonEpoch});
    engine.submit(poison);
    ScenarioSubmission stuck = cheapSubmission("stuck", 2, 4);
    stuck.chaos.addEvent({0, fault::ScenarioFaultKind::kStuckEpoch});
    engine.submit(stuck);
    engine.submit(cheapSubmission("reject-me", 0, 5));
    engine.runUntilIdle(/*maxRounds=*/64);
    return engine.ledger().serialize();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FleetService, LedgerPersistsWithIntegrityTrailer) {
  FleetServiceConfig config = testConfig();
  FleetEngine engine(config);
  ScenarioSubmission poison = cheapSubmission("poison");
  poison.chaos.addEvent({0, fault::ScenarioFaultKind::kPoisonEpoch});
  engine.submit(poison);
  engine.runUntilIdle(/*maxRounds=*/8);

  const std::string path = tempPath("service.ledger");
  engine.ledger().save(path);
  EXPECT_EQ(ServiceLedger::loadSerialized(path),
            engine.ledger().serialize());

  // A flipped byte is detected, not silently parsed.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 3] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(ServiceLedger::loadSerialized(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FleetService, WatchdogCancelsWallClockOverrunAtEpochBoundary) {
  // The full-cost office scenario (500 samples x 7 antennas) against a
  // sub-millisecond wall deadline: the first epoch overruns, the watchdog
  // flags it, and the engine cancels at the epoch boundary.
  FleetServiceConfig config;
  config.maxActive = 1;
  config.epochFrames = 100;
  config.epochWorkBudget = 1u << 20;  // work budget out of the way
  config.watchdogWallDeadlineS = 0.0005;
  config.watchdogPollS = 0.0002;
  config.seed = 3;
  FleetEngine engine(config);

  ScenarioSubmission heavy;
  heavy.name = "heavy";
  heavy.scenarioText = "";  // office defaults
  const auto id = engine.submit(heavy).scenarioId;
  engine.step();

  const ScenarioStatus st = engine.status(id);
  EXPECT_EQ(st.state, ScenarioState::kCancelled);
  EXPECT_NE(st.reason.find("watchdog"), std::string::npos) << st.reason;
  EXPECT_GE(engine.watchdogStats().alarms, 1u);
  EXPECT_GE(engine.watchdogStats().scenariosFlagged, 1u);
  EXPECT_TRUE(engine.idle());
}

TEST(FleetService, TeardownWithQueuedScenariosIsClean) {
  FleetServiceConfig config = testConfig();
  config.maxActive = 1;
  FleetEngine engine(config);
  engine.submit(cheapSubmission("a"));
  engine.submit(cheapSubmission("b"));
  engine.submit(cheapSubmission("c"));
  engine.step();  // one epoch in flight and done; b, c still queued
  // Destructor must join the watchdog and drop queued scenarios without
  // touching the (shared) pool.
}

TEST(FleetService, HarnessTeardownMidEpochDoesNotRace) {
  // Two spoof runs sharing the global pool, abandoned mid-run at
  // staggered times: destructing the runner + system with the pool still
  // warm must not race (this is the TSan-gated regression for the epoch
  // harness refactor).
  const auto worker = [](std::uint64_t seed, std::size_t epochs) {
    std::istringstream in(kCheapScenario);
    const core::Scenario scenario = core::loadScenario(in, "cheap");
    rfp::common::Rng rng(seed);
    trajectory::HumanWalkModel model;
    trajectory::Trace trace;
    do {
      trace = trajectory::centered(model.sample(rng));
    } while (trajectory::motionRange(trace) > 3.5);
    core::RfProtectSystem system(scenario.makeController());
    const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
    const double start = 2.0 * dt;
    const int ghostId = system.addGhostAuto(trace, start, scenario.plan, rng);
    core::SpoofEpochRunner runner(scenario, system, ghostId, start, rng);
    for (std::size_t e = 0; e < epochs && !runner.done(); ++e) {
      runner.runFrames(16);
    }
    // Abandon mid-run: no finish(), destructors run with the shared pool
    // still servicing the other thread.
  };
  std::thread t1(worker, 5, 2);
  std::thread t2(worker, 6, 6);
  t1.join();
  t2.join();
}

TEST(ServiceWire, FrameRoundTripAndCorruptionRejected) {
  transport::ServiceFrame frame;
  frame.seq = 42;
  frame.type = 3;
  frame.payload = "fleet scenario service payload \x01\x02\x03";
  const std::string wire = transport::encodeServiceFrame(frame);

  const auto decoded = transport::decodeServiceFrame(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, frame.seq);
  EXPECT_EQ(decoded->type, frame.type);
  EXPECT_EQ(decoded->payload, frame.payload);

  // Every single-bit flip is caught by the CRC (or the header checks).
  for (std::size_t byte = 0; byte < wire.size(); byte += 7) {
    std::string corrupted = wire;
    corrupted[byte] = static_cast<char>(
        static_cast<unsigned char>(corrupted[byte]) ^ 0x04);
    std::string error;
    EXPECT_FALSE(transport::decodeServiceFrame(corrupted, &error).has_value())
        << "byte " << byte << " flip undetected";
  }
  // Truncation is rejected too.
  EXPECT_FALSE(
      transport::decodeServiceFrame(std::string_view(wire).substr(0, 10))
          .has_value());
}

TEST(ServiceWire, FuzzedFramesNeverDecodeToGarbage) {
  transport::ServiceFrame frame;
  frame.seq = 7;
  frame.type = static_cast<std::uint16_t>(MessageType::kEpochReport);
  frame.payload = encodeReport(EpochReport{});
  const std::string wire = transport::encodeServiceFrame(frame);

  // Every truncation length: either rejected, or (full length) decoded
  // bit-identically. No prefix may parse as a different message.
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    const auto decoded =
        transport::decodeServiceFrame(std::string_view(wire).substr(0, len));
    if (len < wire.size()) {
      EXPECT_FALSE(decoded.has_value()) << "prefix of length " << len;
    } else {
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->payload, frame.payload);
    }
  }

  // Every single-bit flip across the whole frame is caught by the CRC /
  // header checks -- including flips inside the length field, which must
  // never turn into an oversized allocation or an over-read.
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::string corrupted = wire;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_FALSE(transport::decodeServiceFrame(corrupted).has_value())
        << "bit " << bit << " flip undetected";
  }

  // Oversized-length attack: a huge payload-length field with a matching
  // (recomputed) CRC must be rejected by the length check, not trusted.
  {
    std::string oversized = wire;
    const std::size_t lenOffset = 4 + 2 + 8 + 2;  // magic, version, seq, type
    const std::uint32_t hugeLen = 0x7fffffffu;
    std::memcpy(&oversized[lenOffset], &hugeLen, sizeof(hugeLen));
    EXPECT_FALSE(transport::decodeServiceFrame(oversized).has_value());
  }

  // Random mutation storm: seeded garbage of every size, plus random
  // multi-byte stomps of a valid frame. Decoding may only ever say no --
  // it must never crash, over-read, or hand back a frame that differs
  // from a CRC-clean original.
  rfp::common::Rng rng(0xf00du);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    if (trial % 2 == 0) {
      bytes.resize(static_cast<std::size_t>(rng.uniformInt(0, 96)));
      for (auto& c : bytes) c = static_cast<char>(rng.uniformInt(0, 255));
    } else {
      bytes = wire;
      const int stomps = rng.uniformInt(1, 8);
      for (int s = 0; s < stomps; ++s) {
        const auto pos = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(rng.uniformInt(0, 255));
      }
    }
    const auto decoded = transport::decodeServiceFrame(bytes);
    if (decoded.has_value()) {
      // Astronomically unlikely to survive the CRC unless bit-identical.
      EXPECT_EQ(transport::encodeServiceFrame(*decoded), wire);
    }
  }
}

TEST(ServiceWire, FuzzedProtocolPayloadsNeverMisparse) {
  // The type-tag dispatch layer: a CRC-clean frame whose payload was
  // built for a *different* message type must be rejected by the decoder
  // for the claimed type, not misparsed into a half-valid struct.
  const std::string reportBytes = encodeReport(EpochReport{});
  EXPECT_FALSE(decodeSubmission(reportBytes).has_value());
  EXPECT_FALSE(decodeResume(reportBytes).has_value());
  const std::string resumeBytes = encodeResume(ResumeRequest{});
  EXPECT_FALSE(decodeReport(resumeBytes).has_value());
  EXPECT_FALSE(decodeOutcome(resumeBytes).has_value());

  // Truncations and seeded garbage against every payload decoder: a
  // decoder may only return nullopt, never throw or over-read. Enum
  // fields (tier, state, fault kind, resume status) must reject
  // out-of-range tags even when lengths are plausible.
  ScenarioSubmission sub;
  sub.name = "fuzz";
  sub.scenarioText = kCheapScenario;
  sub.chaos.addEvent({2, fault::ScenarioFaultKind::kPoisonEpoch});
  const std::string payloads[] = {
      encodeSubmission(sub),
      encodeOutcome(SubmitOutcome{}),
      encodeReport(EpochReport{}),
      encodeResume(ResumeRequest{}),
      encodeResumeAck(ResumeAck{}),
  };
  rfp::common::Rng rng(0xbeefu);
  for (const std::string& good : payloads) {
    for (std::size_t len = 0; len < good.size(); ++len) {
      const std::string_view prefix = std::string_view(good).substr(0, len);
      decodeSubmission(prefix);
      decodeOutcome(prefix);
      decodeReport(prefix);
      decodeResume(prefix);
      decodeResumeAck(prefix);
    }
    for (int trial = 0; trial < 500; ++trial) {
      std::string bytes = good;
      const int stomps = rng.uniformInt(1, 6);
      for (int s = 0; s < stomps; ++s) {
        const auto pos = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(rng.uniformInt(0, 255));
      }
      decodeSubmission(bytes);
      decodeOutcome(bytes);
      decodeReport(bytes);
      decodeResume(bytes);
      decodeResumeAck(bytes);
    }
  }
  // Reaching here without a crash or sanitizer report is the assertion;
  // spot-check one structured rejection: an out-of-range admission tier.
  std::string badTier = encodeOutcome(SubmitOutcome{});
  badTier[8] = 17;  // tier byte follows the u64 scenario id
  EXPECT_FALSE(decodeOutcome(badTier).has_value());
}

TEST(ServiceWire, ProtocolPayloadsRoundTrip) {
  ScenarioSubmission sub;
  sub.name = "flat-7";
  sub.scenarioText = kCheapScenario;
  sub.priority = 3;
  sub.seed = 99;
  sub.chaos.addEvent({4, fault::ScenarioFaultKind::kStuckEpoch});
  const auto sub2 = decodeSubmission(encodeSubmission(sub));
  ASSERT_TRUE(sub2.has_value());
  EXPECT_EQ(sub2->name, sub.name);
  EXPECT_EQ(sub2->scenarioText, sub.scenarioText);
  EXPECT_EQ(sub2->priority, sub.priority);
  EXPECT_EQ(sub2->seed, sub.seed);
  ASSERT_EQ(sub2->chaos.events().size(), 1u);
  EXPECT_EQ(sub2->chaos.events()[0].epoch, 4u);

  SubmitOutcome outcome;
  outcome.scenarioId = 17;
  outcome.tier = AdmissionTier::kShedLowest;
  outcome.state = ScenarioState::kQueued;
  outcome.reason = "queued after shedding scenario 12";
  const auto outcome2 = decodeOutcome(encodeOutcome(outcome));
  ASSERT_TRUE(outcome2.has_value());
  EXPECT_EQ(outcome2->scenarioId, 17u);
  EXPECT_EQ(outcome2->tier, AdmissionTier::kShedLowest);
  EXPECT_EQ(outcome2->reason, outcome.reason);

  EpochReport report;
  report.scenarioId = 17;
  report.metrics.epoch = 5;
  report.metrics.framesDetected = 31;
  report.metrics.sumDistanceErrorM = 3.25;
  report.terminal = true;
  report.finalState = ScenarioState::kCompleted;
  report.finalReason = "trace exhausted after 7 epochs";
  report.summary.medianDistanceErrorM = 0.125;
  const auto report2 = decodeReport(encodeReport(report));
  ASSERT_TRUE(report2.has_value());
  EXPECT_EQ(report2->metrics.framesDetected, 31u);
  EXPECT_EQ(report2->metrics.sumDistanceErrorM, 3.25);
  EXPECT_TRUE(report2->terminal);
  EXPECT_EQ(report2->finalState, ScenarioState::kCompleted);
  EXPECT_EQ(report2->summary.medianDistanceErrorM, 0.125);

  // Truncated payloads are rejected, never misparsed.
  const std::string bytes = encodeReport(report);
  EXPECT_FALSE(decodeReport(std::string_view(bytes).substr(0, 20))
                   .has_value());
}

TEST(ServiceWire, LossyClientLinkDegradesStreamNotService) {
  FleetEngine engine(testConfig());
  FleetService service(engine);
  transport::TransportConfig transportConfig;
  ServiceClient client(service, transportConfig, /*seed=*/12345);

  transport::ChannelCondition lossy;
  lossy.lossProb = 0.4;
  lossy.corruptProb = 0.2;

  // Submit over the lossy link; retry/backoff usually gets it through,
  // but an exhausted budget only costs this client its ack.
  std::uint64_t id = 0;
  for (int attempt = 0; attempt < 20 && id == 0; ++attempt) {
    const auto outcome = client.submit(cheapSubmission("lossy-home"), lossy);
    if (outcome.has_value()) {
      id = outcome->scenarioId;
    } else if (client.scenarioIfUnacked() != 0) {
      id = client.scenarioIfUnacked();  // admitted, ack lost
    }
  }
  ASSERT_NE(id, 0u);

  engine.runUntilIdle(/*maxRounds=*/64);
  EXPECT_EQ(engine.status(id).state, ScenarioState::kCompleted);

  std::vector<EpochReport> received;
  const std::size_t dropped = client.poll(id, lossy, received);
  const ScenarioStatus st = engine.status(id);
  // Every produced report was either delivered or dropped -- a degraded
  // stream, not a corrupted or wedged one.
  EXPECT_EQ(received.size() + dropped, st.epochsCompleted + 1);
  for (const EpochReport& r : received) {
    EXPECT_EQ(r.scenarioId, id);
  }
  // The channel actually bit: the link saw losses or CRC rejections.
  const auto& up = client.uplinkStats();
  const auto& down = client.downlinkStats();
  EXPECT_GT(up.lostInFlight + up.corruptedDetected + down.lostInFlight +
                down.corruptedDetected,
            0);
}

TEST(ServiceWire, CleanLinkDeliversFullStream) {
  FleetEngine engine(testConfig());
  FleetService service(engine);
  transport::TransportConfig transportConfig;
  ServiceClient client(service, transportConfig, /*seed=*/1);

  const transport::ChannelCondition clean;
  const auto outcome = client.submit(cheapSubmission("clean-home"), clean);
  ASSERT_TRUE(outcome.has_value());
  engine.runUntilIdle(/*maxRounds=*/64);

  std::vector<EpochReport> received;
  const std::size_t dropped = client.poll(outcome->scenarioId, clean,
                                          received);
  EXPECT_EQ(dropped, 0u);
  const ScenarioStatus st = engine.status(outcome->scenarioId);
  ASSERT_EQ(received.size(), st.epochsCompleted + 1);
  EXPECT_TRUE(received.back().terminal);
  EXPECT_EQ(received.back().finalState, ScenarioState::kCompleted);
  EXPECT_GT(received.back().summary.framesTotal, 0u);
  // Epoch indices arrive in order with no gaps on a clean link.
  for (std::size_t i = 0; i + 1 < received.size(); ++i) {
    EXPECT_EQ(received[i].metrics.epoch, i);
  }
}

}  // namespace
}  // namespace rfp::service
