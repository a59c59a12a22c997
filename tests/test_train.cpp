/// \file test_train.cpp
/// Training supervision: health telemetry, the seeded training-fault
/// timeline, the incident taxonomy + CRC-checked ledger, dataset
/// quarantine, the divergence watchdog, and the supervised trainer
/// end-to-end -- including the determinism contract (same seed + same
/// faults => byte-identical ledger and bit-identical final weights).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/atomic_io.h"
#include "common/rng.h"
#include "gan/trajectory_gan.h"
#include "nn/serialize.h"
#include "train/dataset_guard.h"
#include "train/incident.h"
#include "train/supervisor.h"
#include "train/train_fault.h"
#include "train/train_health.h"
#include "train/watchdog.h"
#include "trajectory/human_walk.h"

namespace rfp::train {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using rfp::test::tempPath;

gan::GanBatchStats batchStats(double dLoss, double gLoss, double winRate,
                              double gradNorm = 1.0, bool clipped = false) {
  gan::GanBatchStats s;
  s.discriminatorLoss = dLoss;
  s.generatorLoss = gLoss;
  s.discriminatorWinRate = winRate;
  s.discriminatorGradNorm = gradNorm;
  s.generatorGradNorm = gradNorm * 0.5;
  s.discriminatorClipped = clipped;
  return s;
}

// ---------------------------------------------------------------------------
// TrainHealth
// ---------------------------------------------------------------------------

TEST(TrainHealth, RollingStatsOverWindow) {
  TrainHealth h({.window = 4});
  for (int i = 1; i <= 6; ++i) {
    h.record(batchStats(static_cast<double>(i), 0.0, 0.5));
  }
  // Window holds combined losses {3, 4, 5, 6}.
  EXPECT_EQ(h.entries(), 4u);
  EXPECT_EQ(h.stepsRecorded(), 6u);
  EXPECT_TRUE(h.windowFull());
  EXPECT_DOUBLE_EQ(h.lossMean(), 4.5);
  EXPECT_DOUBLE_EQ(h.lossVariance(), 1.25);
  EXPECT_DOUBLE_EQ(h.lossMedian(), 5.0);  // upper median of 4 entries
}

TEST(TrainHealth, MedianIgnoresNonFiniteLosses) {
  TrainHealth h({.window = 8});
  h.record(batchStats(1.0, 0.0, 0.5));
  h.record(batchStats(kNan, 0.0, 0.5));
  h.record(batchStats(3.0, 0.0, 0.5));
  EXPECT_DOUBLE_EQ(h.lossMedian(), 3.0);
  EXPECT_DOUBLE_EQ(h.lossMean(), 2.0);
}

TEST(TrainHealth, WinRateStreaksAndClipRate) {
  TrainHealth h({.window = 8});
  h.record(batchStats(1.0, 1.0, 0.4));
  h.record(batchStats(1.0, 1.0, 0.99, 1.0, true));
  h.record(batchStats(1.0, 1.0, 1.0));
  EXPECT_EQ(h.winRateStreakAtLeast(0.98), 2u);
  EXPECT_EQ(h.winRateStreakAtMost(0.02), 0u);
  EXPECT_DOUBLE_EQ(h.clipRate(), 1.0 / 3.0);
  h.reset();
  EXPECT_EQ(h.entries(), 0u);
  EXPECT_EQ(h.stepsRecorded(), 0u);
}

TEST(TrainHealth, RejectsDegenerateWindow) {
  EXPECT_THROW(TrainHealth({.window = 1}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TrainFaultSchedule
// ---------------------------------------------------------------------------

TEST(TrainFault, DeterministicAndQueryOrderIndependent) {
  TrainFaultConfig cfg;
  cfg.seed = 99;
  cfg.horizonAttempts = 100;
  cfg.nanGradients = 3;
  cfg.infGradients = 2;
  cfg.lrSpikes = 1;
  const TrainFaultSchedule a(cfg);
  const TrainFaultSchedule b(cfg);
  ASSERT_EQ(a.events().size(), 6u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].attempt, b.events()[i].attempt);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].onGenerator, b.events()[i].onGenerator);
    EXPECT_EQ(a.events()[i].entrySalt, b.events()[i].entrySalt);
  }
  // Querying attempts backwards reproduces the same firing sets.
  std::size_t firing = 0;
  for (std::size_t attempt = 100; attempt-- > 0;) {
    firing += a.at(attempt).size();
  }
  EXPECT_EQ(firing, 6u);
}

TEST(TrainFault, EventsRespectWindowAndKindCounts) {
  TrainFaultConfig cfg;
  cfg.horizonAttempts = 50;
  cfg.minAttempt = 10;
  cfg.nanGradients = 4;
  const TrainFaultSchedule sched(cfg);
  ASSERT_EQ(sched.events().size(), 4u);
  for (const TrainFaultEvent& ev : sched.events()) {
    EXPECT_GE(ev.attempt, 10u);
    EXPECT_LT(ev.attempt, 50u);
    EXPECT_EQ(ev.kind, TrainFaultKind::kNanGradient);
  }
  EXPECT_FALSE(sched.idle());
  EXPECT_TRUE(TrainFaultSchedule{}.idle());
  EXPECT_TRUE(TrainFaultSchedule(TrainFaultConfig{}).idle());
}

TEST(TrainFault, RejectsImpossibleWindow) {
  TrainFaultConfig cfg;
  cfg.horizonAttempts = 5;
  cfg.minAttempt = 5;
  cfg.nanGradients = 1;
  EXPECT_THROW(TrainFaultSchedule{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Incident ledger
// ---------------------------------------------------------------------------

std::vector<TrainIncident> sampleIncidents() {
  TrainIncident contained;
  contained.attempt = 12;
  contained.epoch = 1;
  contained.batchStart = 32;
  contained.kind = IncidentKind::kNonFiniteGradient;
  contained.action = RecoveryAction::kContainedSkip;
  contained.generatorLrAfter = 1e-4;
  contained.discriminatorLrAfter = 2e-4;
  contained.detail = "discriminator: d.fc.weight.grad[7] = nan";
  TrainIncident rollback;
  rollback.attempt = 40;
  rollback.epoch = 2;
  rollback.batchStart = 0;
  rollback.kind = IncidentKind::kLossExplosion;
  rollback.action = RecoveryAction::kRollbackRetune;
  rollback.restoredAttempt = 32;
  rollback.generatorLrAfter = 5e-5;
  rollback.discriminatorLrAfter = 1e-4;
  rollback.detail = "combined loss 91.2 exceeds 8 x rolling median 2.1";
  return {contained, rollback};
}

TEST(IncidentLedger, EncodeDecodeRoundTrip) {
  const auto incidents = sampleIncidents();
  const auto decoded =
      decodeIncidentLedger(encodeIncidentLedger(incidents), "mem");
  ASSERT_EQ(decoded.size(), incidents.size());
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    EXPECT_EQ(decoded[i].attempt, incidents[i].attempt);
    EXPECT_EQ(decoded[i].epoch, incidents[i].epoch);
    EXPECT_EQ(decoded[i].batchStart, incidents[i].batchStart);
    EXPECT_EQ(decoded[i].kind, incidents[i].kind);
    EXPECT_EQ(decoded[i].action, incidents[i].action);
    EXPECT_EQ(decoded[i].restoredAttempt, incidents[i].restoredAttempt);
    EXPECT_DOUBLE_EQ(decoded[i].generatorLrAfter,
                     incidents[i].generatorLrAfter);
    EXPECT_DOUBLE_EQ(decoded[i].discriminatorLrAfter,
                     incidents[i].discriminatorLrAfter);
    EXPECT_EQ(decoded[i].detail, incidents[i].detail);
  }
}

TEST(IncidentLedger, SaveLoadIsCrcChecked) {
  const std::string path = tempPath("incidents.ledger");
  saveIncidentLedger(path, sampleIncidents());
  EXPECT_EQ(loadIncidentLedger(path).size(), 2u);

  // Flip one byte: the CRC trailer must reject the file.
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  bytes[bytes.size() / 3] ^= 0x20;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_THROW(loadIncidentLedger(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(IncidentLedger, RejectsMalformedBodies) {
  EXPECT_THROW(decodeIncidentLedger("RFPWRONG 9\n0\n", "mem"),
               std::runtime_error);
  EXPECT_THROW(decodeIncidentLedger("RFPTINC 1\n2\n", "mem"),
               std::runtime_error);
  EXPECT_THROW(
      decodeIncidentLedger(
          "RFPTINC 1\n1\n1 0 0 bogus-kind contained-skip 0 1e-4 2e-4 x\n",
          "mem"),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Dataset quarantine
// ---------------------------------------------------------------------------

trajectory::Trace goodTrace(double offset, int label = 1,
                            std::size_t points = 5) {
  trajectory::Trace t;
  t.label = label;
  for (std::size_t i = 0; i < points; ++i) {
    t.points.push_back({offset + static_cast<double>(i), offset * 0.5});
  }
  return t;
}

TEST(DatasetGuard, QuarantinesEveryDefectKind) {
  std::vector<trajectory::Trace> traces;
  traces.push_back(goodTrace(0.0));
  trajectory::Trace nan = goodTrace(1.0);
  nan.points[2].y = kNan;
  traces.push_back(nan);
  trajectory::Trace inf = goodTrace(2.0);
  inf.points[0].x = kInf;
  traces.push_back(inf);
  traces.push_back(goodTrace(3.0, /*label=*/7));   // class out of range
  traces.push_back(goodTrace(4.0, 1, /*points=*/3));  // truncated
  traces.push_back(goodTrace(0.0));                // exact duplicate
  trajectory::Trace far = goodTrace(5.0);
  far.points[1].x = 1e6;                           // implausible magnitude
  traces.push_back(far);
  traces.push_back(goodTrace(6.0));

  const DatasetAudit audit = auditTraces(traces, DatasetGuardConfig{}, "mem");
  EXPECT_EQ(audit.accepted.size(), 2u);
  ASSERT_EQ(audit.quarantined.size(), 6u);
  EXPECT_EQ(audit.total(), 8u);
  EXPECT_DOUBLE_EQ(audit.survivingFraction(), 0.25);
  EXPECT_FALSE(audit.meetsFloor(0.5));
  EXPECT_TRUE(audit.meetsFloor(0.25));

  EXPECT_EQ(audit.quarantined[0].where, "mem[1]");
  EXPECT_NE(audit.quarantined[0].reason.find("non-finite coordinate"),
            std::string::npos);
  EXPECT_NE(audit.quarantined[2].reason.find("out of range"),
            std::string::npos);
  EXPECT_NE(audit.quarantined[3].reason.find("truncated"), std::string::npos);
  EXPECT_NE(audit.quarantined[4].reason.find("duplicate"), std::string::npos);
  EXPECT_NE(audit.quarantined[5].reason.find("magnitude"), std::string::npos);
}

TEST(DatasetGuard, DuplicateRejectionCanBeDisabled) {
  std::vector<trajectory::Trace> traces{goodTrace(0.0), goodTrace(0.0)};
  DatasetGuardConfig cfg;
  cfg.rejectDuplicates = false;
  EXPECT_EQ(auditTraces(traces, cfg, "mem").accepted.size(), 2u);
}

TEST(DatasetGuard, CsvLoaderQuarantinesWithFileLineDiagnostics) {
  const std::string path = tempPath("quarantine.csv");
  {
    std::ofstream out(path);
    out << "1,0.0,0.0,1.0,1.0\n";     // good
    out << "1,nan,0.0,1.0,1.0\n";     // NaN coordinate (parse reject)
    out << "9,0.0,0.0,1.0,1.0\n";     // label out of range (parse reject)
    out << "1,2.0,2.0,3.0\n";         // odd count: torn mid-pair
    out << "1,5.0,5.0\n";             // fewer points than first record
    out << "1,1.0,1.0,2.0,2.0\n";     // good
  }
  const DatasetAudit audit =
      loadTracesCsvQuarantining(path, DatasetGuardConfig{});
  std::remove(path.c_str());
  EXPECT_EQ(audit.accepted.size(), 2u);
  ASSERT_EQ(audit.quarantined.size(), 4u);
  EXPECT_EQ(audit.quarantined[0].where, path + ":2");
  EXPECT_NE(audit.quarantined[0].reason.find(path + ":2"), std::string::npos);
  EXPECT_EQ(audit.quarantined[1].where, path + ":3");
  EXPECT_EQ(audit.quarantined[2].where, path + ":4");
  EXPECT_EQ(audit.quarantined[3].where, path + ":5");
  EXPECT_NE(audit.quarantined[3].reason.find("expected 2"), std::string::npos);
}

TEST(DatasetGuard, MissingFileThrows) {
  EXPECT_THROW(
      loadTracesCsvQuarantining(tempPath("nope.csv"), DatasetGuardConfig{}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// DivergenceWatchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, DetectsLossExplosionAgainstRollingMedian) {
  WatchdogConfig cfg;
  cfg.minHistory = 4;
  cfg.lossExplosionFactor = 4.0;
  const DivergenceWatchdog dog(cfg);
  TrainHealth h({.window = 8});
  for (int i = 0; i < 4; ++i) h.record(batchStats(0.7, 0.7, 0.5));
  EXPECT_FALSE(dog.inspect(batchStats(0.7, 0.7, 0.5), h).has_value());

  const auto exploding = batchStats(40.0, 40.0, 0.5);
  h.record(exploding);
  const auto verdict = dog.inspect(exploding, h);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, IncidentKind::kLossExplosion);
  EXPECT_NE(verdict->detail.find("rolling median"), std::string::npos);
}

TEST(Watchdog, ArmsOnlyWithEnoughHistory) {
  WatchdogConfig cfg;
  cfg.minHistory = 8;
  const DivergenceWatchdog dog(cfg);
  TrainHealth h({.window = 8});
  for (int i = 0; i < 4; ++i) h.record(batchStats(0.5, 0.5, 0.5));
  const auto exploding = batchStats(500.0, 500.0, 0.5);
  h.record(exploding);
  EXPECT_FALSE(dog.inspect(exploding, h).has_value());
}

TEST(Watchdog, DetectsBothCollapseDirections) {
  WatchdogConfig cfg;
  cfg.minHistory = 2;
  cfg.collapseStreak = 3;
  const DivergenceWatchdog dog(cfg);

  TrainHealth high({.window = 8});
  for (int i = 0; i < 3; ++i) high.record(batchStats(0.7, 0.7, 1.0));
  auto verdict = dog.inspect(batchStats(0.7, 0.7, 1.0), high);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, IncidentKind::kDiscriminatorCollapse);

  TrainHealth low({.window = 8});
  for (int i = 0; i < 3; ++i) low.record(batchStats(0.7, 0.7, 0.0));
  verdict = dog.inspect(batchStats(0.7, 0.7, 0.0), low);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, IncidentKind::kGeneratorCollapse);
}

TEST(Watchdog, RejectsInconsistentConfig) {
  WatchdogConfig bad;
  bad.lossExplosionFactor = 0.5;
  EXPECT_THROW(DivergenceWatchdog{bad}, std::invalid_argument);
  bad = {};
  bad.collapseLowWinRate = 0.9;
  bad.collapseHighWinRate = 0.1;
  EXPECT_THROW(DivergenceWatchdog{bad}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SupervisedTrainer end-to-end (tiny GAN)
// ---------------------------------------------------------------------------

gan::GeneratorConfig tinyG() {
  gan::GeneratorConfig g;
  g.noiseDim = 4;
  g.labelEmbeddingDim = 3;
  g.hiddenSize = 8;
  g.lstmLayers = 2;
  g.dropout = 0.0;
  g.traceLength = 10;
  return g;
}

gan::DiscriminatorConfig tinyD() {
  gan::DiscriminatorConfig d;
  d.labelEmbeddingDim = 3;
  d.featureSize = 6;
  d.hiddenSize = 8;
  d.dropout = 0.0;
  d.traceLength = 10;
  return d;
}

std::vector<trajectory::Trace> tinyDataset(std::uint64_t seed,
                                           std::size_t count = 64) {
  rfp::common::Rng rng(seed);
  trajectory::HumanWalkModel model;
  auto dataset = model.dataset(count, rng);
  for (auto& t : dataset) t.points = trajectory::resample(t.points, 11);
  return dataset;
}

SupervisorConfig tinySupervisorConfig() {
  SupervisorConfig cfg;
  cfg.health.window = 8;
  cfg.watchdog.minHistory = 4;
  cfg.goodCheckpointEveryAttempts = 2;
  cfg.cooldownAttempts = 4;
  return cfg;
}

struct RunResult {
  SupervisedTrainReport report;
  std::string weights;  ///< serialized parameters (bit-exact comparison)
  std::string ledger;   ///< encoded incident ledger
};

RunResult runSupervised(const SupervisorConfig& cfg, std::size_t epochs = 2) {
  rfp::common::Rng initRng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = epochs;
  gan::TrajectoryGan gan(tinyG(), tinyD(), tc, initRng);
  SupervisedTrainer trainer(gan, cfg);
  rfp::common::Rng trainRng(11);
  RunResult r;
  r.report = trainer.train(tinyDataset(21), trainRng);
  std::ostringstream weights;
  nn::serializeParameters(weights, gan.networkParameters());
  r.weights = weights.str();
  r.ledger = encodeIncidentLedger(r.report.incidents);
  return r;
}

TEST(SupervisedTrainer, CleanRunCompletesWithoutIncidents) {
  const RunResult r = runSupervised(tinySupervisorConfig());
  EXPECT_EQ(r.report.incidents.size(), 0u);
  EXPECT_EQ(r.report.rollbacks, 0u);
  EXPECT_EQ(r.report.attempts, 8u);  // 64 traces / batch 16 * 2 epochs
  EXPECT_EQ(r.report.epochs.size(), 2u);
  EXPECT_TRUE(r.report.finiteWeights);
  EXPECT_EQ(r.report.audit.quarantined.size(), 0u);
}

TEST(SupervisedTrainer, ContainsInjectedNanGradientsAndStaysFinite) {
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.faults.seed = 5;
  cfg.faults.horizonAttempts = 8;
  cfg.faults.minAttempt = 1;
  cfg.faults.nanGradients = 2;
  const RunResult r = runSupervised(cfg);
  EXPECT_GE(r.report.containedSteps, 1u);
  EXPECT_GE(r.report.incidents.size(), 1u);
  for (const TrainIncident& inc : r.report.incidents) {
    EXPECT_EQ(inc.kind, IncidentKind::kNonFiniteGradient);
    EXPECT_EQ(inc.action, RecoveryAction::kContainedSkip);
    EXPECT_NE(inc.detail.find("nan"), std::string::npos);
  }
  EXPECT_TRUE(r.report.finiteWeights);
}

TEST(SupervisedTrainer, LrSpikeTriggersRollbackAndRetune) {
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.watchdog.lossExplosionFactor = 1.5;
  cfg.faults.seed = 3;
  cfg.faults.horizonAttempts = 16;
  cfg.faults.minAttempt = 6;  // after the watchdog has history
  cfg.faults.lrSpikes = 1;
  cfg.faults.lrSpikeFactor = 1e6;
  cfg.faults.lrSpikeDurationAttempts = 2;
  const RunResult r = runSupervised(cfg, /*epochs=*/4);
  EXPECT_GE(r.report.incidents.size(), 1u);
  EXPECT_GE(r.report.rollbacks, 1u);
  bool sawRollback = false;
  for (const TrainIncident& inc : r.report.incidents) {
    if (inc.action != RecoveryAction::kRollbackRetune) continue;
    sawRollback = true;
    // Retune: learning rates decayed below the configured defaults.
    EXPECT_LT(inc.generatorLrAfter, 1e-4);
    EXPECT_LT(inc.discriminatorLrAfter, 2e-4);
  }
  EXPECT_TRUE(sawRollback);
  EXPECT_TRUE(r.report.finiteWeights);
}

TEST(SupervisedTrainer, RecoveryIsDeterministic) {
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.watchdog.lossExplosionFactor = 1.5;
  cfg.faults.seed = 3;
  cfg.faults.horizonAttempts = 16;
  cfg.faults.minAttempt = 4;
  cfg.faults.nanGradients = 2;
  cfg.faults.lrSpikes = 1;
  cfg.faults.lrSpikeFactor = 1e6;
  const RunResult a = runSupervised(cfg, /*epochs=*/4);
  const RunResult b = runSupervised(cfg, /*epochs=*/4);
  EXPECT_GE(a.report.incidents.size(), 1u);
  EXPECT_EQ(a.ledger, b.ledger);    // byte-identical incident ledger
  EXPECT_EQ(a.weights, b.weights);  // bit-identical final weights
}

TEST(SupervisedTrainer, PersistsLedgerCrcChecked) {
  const std::string path = tempPath("train.incidents");
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.ledgerPath = path;
  cfg.faults.seed = 5;
  cfg.faults.horizonAttempts = 8;
  cfg.faults.minAttempt = 1;
  cfg.faults.nanGradients = 2;
  const RunResult r = runSupervised(cfg);
  const auto loaded = loadIncidentLedger(path);
  std::remove(path.c_str());
  EXPECT_EQ(encodeIncidentLedger(loaded), r.ledger);
}

TEST(SupervisedTrainer, RefusesDatasetBelowSurvivalFloor) {
  rfp::common::Rng initRng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 4;
  tc.epochs = 1;
  gan::TrajectoryGan gan(tinyG(), tinyD(), tc, initRng);
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.datasetGuard.minSurvivingFraction = 0.9;
  SupervisedTrainer trainer(gan, cfg);

  auto dataset = tinyDataset(21, 16);
  for (std::size_t i = 0; i < 8; ++i) dataset[i].points[0].x = kNan;
  rfp::common::Rng trainRng(11);
  EXPECT_THROW(trainer.train(dataset, trainRng), std::runtime_error);
}

TEST(SupervisedTrainer, RejectsInconsistentConfig) {
  rfp::common::Rng initRng(7);
  gan::TrajectoryGan gan(tinyG(), tinyD(), gan::GanTrainingConfig{}, initRng);
  SupervisorConfig cfg = tinySupervisorConfig();
  cfg.lrDecay = 0.0;
  EXPECT_THROW(SupervisedTrainer(gan, cfg), std::invalid_argument);
  cfg = tinySupervisorConfig();
  cfg.goodCheckpointRing = 0;
  EXPECT_THROW(SupervisedTrainer(gan, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace rfp::train
