/// \file test_persistence.cpp
/// Crash-safe persistence: the atomic-write + integrity-trailer layer
/// (common/atomic_io), ledger and NN-checkpoint files built on it (every
/// single-bit flip must be *detected*, never silently parsed), and
/// checkpoint/resume of GAN training -- a run killed anywhere and resumed
/// must produce bit-identical parameters to an uninterrupted one.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/atomic_io.h"
#include "common/rng.h"
#include "gan/trajectory_gan.h"
#include "nn/adam.h"
#include "nn/serialize.h"
#include "reflector/ledger_io.h"
#include "trajectory/human_walk.h"

namespace rfp {
namespace {

using rfp::test::tempPath;

void writeRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// atomic_io
// ---------------------------------------------------------------------------

TEST(AtomicIo, CheckedRoundTrip) {
  const std::string path = tempPath("checked.txt");
  const std::string body = "line one\nline two\n";
  common::writeFileChecked(path, body);
  EXPECT_EQ(common::readFileChecked(path), body);
  std::remove(path.c_str());
}

TEST(AtomicIo, MissingTrailerNamesFileAndOffset) {
  const std::string path = tempPath("untrailed.txt");
  writeRaw(path, "no trailer here");
  try {
    common::readFileChecked(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(AtomicIo, EverySingleBitFlipDetectedOrBodyIdentical) {
  const std::string path = tempPath("bitflip.txt");
  const std::string body = "ghost ledger payload 12345\n";
  common::writeFileChecked(path, body);
  const std::string framed = common::readFileBytes(path);

  std::size_t bodyFlips = 0;
  for (std::size_t bit = 0; bit < framed.size() * 8; ++bit) {
    std::string corrupted = framed;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    writeRaw(path, corrupted);
    if (bit / 8 < body.size()) {
      // CRC-32 catches *all* single-bit errors in the body proper.
      ++bodyFlips;
      EXPECT_THROW(common::readFileChecked(path), std::runtime_error)
          << "body bit " << bit << " flip went undetected";
      continue;
    }
    try {
      // Trailer flips: detected, or harmless (e.g. the hex checksum's case
      // bit) -- then the returned body must be byte-identical.
      EXPECT_EQ(common::readFileChecked(path), body)
          << "trailer bit " << bit << " silently changed the body";
    } catch (const std::runtime_error&) {
      // Detected: also fine.
    }
  }
  EXPECT_EQ(bodyFlips, body.size() * 8);
  std::remove(path.c_str());
}

TEST(AtomicIo, TruncationIsDetectedAtEveryLength) {
  const std::string path = tempPath("truncated.txt");
  common::writeFileChecked(path, "0123456789abcdef");
  const std::string framed = common::readFileBytes(path);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    writeRaw(path, framed.substr(0, len));
    EXPECT_THROW(common::readFileChecked(path), std::runtime_error)
        << "truncation to " << len << " bytes went undetected";
  }
  std::remove(path.c_str());
}

TEST(AtomicIo, RotatingWriteFallsBackToPreviousGeneration) {
  const std::string path = tempPath("rotating.txt");
  const std::string bak = path + ".bak";
  std::remove(path.c_str());
  std::remove(bak.c_str());

  EXPECT_EQ(common::readFileRotating(path), std::nullopt);

  common::writeFileRotating(path, "generation 1");
  common::writeFileRotating(path, "generation 2");
  bool usedBackup = true;
  EXPECT_EQ(common::readFileRotating(path, &usedBackup), "generation 2");
  EXPECT_FALSE(usedBackup);

  // Corrupt the primary (torn write): the previous generation is served.
  writeRaw(path, "torn");
  EXPECT_EQ(common::readFileRotating(path, &usedBackup), "generation 1");
  EXPECT_TRUE(usedBackup);

  // Both generations corrupt: reported, not silently accepted.
  writeRaw(bak, "also torn");
  EXPECT_THROW(common::readFileRotating(path), std::runtime_error);

  std::remove(path.c_str());
  std::remove(bak.c_str());
}

// ---------------------------------------------------------------------------
// Ledger files
// ---------------------------------------------------------------------------

reflector::GhostLedger sampleLedger() {
  reflector::GhostLedger ledger;
  reflector::ControlCommand cmd;
  cmd.intendedWorld = {2.5, 3.75};
  cmd.antennaIndex = 3;
  cmd.fSwitchHz = 52341.5;
  ledger.add(1000, 0.55, cmd);
  cmd.intendedWorld = {2.6, 3.80};
  ledger.add(1000, 0.60, cmd, /*emitted=*/false);  // parked fade-out frame
  cmd.intendedWorld = {2.7, 3.85};
  ledger.add(1001, 0.65, cmd);
  return ledger;
}

TEST(LedgerFile, SaveLoadRoundTripsEmittedFlag) {
  const std::string path = tempPath("ghosts.ledger");
  reflector::saveLedgerFile(path, sampleLedger());
  const auto loaded = reflector::loadLedgerFile(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_TRUE(loaded.records()[0].emitted);
  EXPECT_FALSE(loaded.records()[1].emitted);
  EXPECT_TRUE(loaded.records()[2].emitted);
  EXPECT_EQ(loaded.records()[1].ghostId, 1000);
  EXPECT_NEAR(loaded.records()[1].command.intendedWorld.x, 2.6, 1e-6);
  std::remove(path.c_str());
}

TEST(LedgerFile, LegacySixFieldLinesParseAsEmitted) {
  const auto ledger =
      reflector::ledgerFromString("1000 0.5 2.5 3.0 2 50000\n");
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_TRUE(ledger.records()[0].emitted);
  EXPECT_THROW(reflector::ledgerFromString("1000 0.5 2.5 3.0 2 50000 7\n"),
               std::runtime_error);
}

TEST(LedgerFile, EverySingleBitFlipDetectedOrLedgerIdentical) {
  const std::string path = tempPath("flipped.ledger");
  const reflector::GhostLedger original = sampleLedger();
  reflector::saveLedgerFile(path, original);
  const std::string framed = common::readFileBytes(path);
  const std::string originalWire = reflector::ledgerToString(original);

  for (std::size_t bit = 0; bit < framed.size() * 8; ++bit) {
    std::string corrupted = framed;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    writeRaw(path, corrupted);
    try {
      const auto loaded = reflector::loadLedgerFile(path);
      // Not detected -> the parsed ledger must be identical to the
      // original (CRC-32 catches all single-bit errors, so reaching here
      // means the flip was somehow neutral; re-serialize and compare).
      EXPECT_EQ(reflector::ledgerToString(loaded), originalWire)
          << "bit " << bit << " silently changed the ledger";
    } catch (const std::runtime_error&) {
      // Detected: the expected outcome.
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// NN checkpoints
// ---------------------------------------------------------------------------

TEST(NnCheckpoint, CorruptionAndVersionErrorsNameFileAndOffset) {
  const std::string path = tempPath("params.ckpt");
  nn::Parameter w("w", nn::Matrix(2, 3, 0.5));
  nn::Parameter b("b", nn::Matrix(1, 3, -1.25));
  const nn::ParameterList params = {&w, &b};
  nn::saveParameters(path, params);
  nn::loadParameters(path, params);  // round trip sanity

  // Bit flip: rejected with the byte offset, before any value is parsed.
  std::string framed = common::readFileBytes(path);
  framed[framed.size() / 2] = static_cast<char>(
      static_cast<unsigned char>(framed[framed.size() / 2]) ^ 0x10u);
  writeRaw(path, framed);
  try {
    nn::loadParameters(path, params);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte"), std::string::npos) << msg;
  }

  // Truncation: also rejected.
  nn::saveParameters(path, params);
  const std::string intact = common::readFileBytes(path);
  writeRaw(path, intact.substr(0, intact.size() / 2));
  EXPECT_THROW(nn::loadParameters(path, params), std::runtime_error);

  // Wrong version (valid trailer, old header): named in the error.
  common::writeFileChecked(path, "RFPNN 1\n0\n");
  try {
    nn::loadParameters(path, params);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RNG / optimizer state round trips
// ---------------------------------------------------------------------------

TEST(RngState, SaveLoadContinuesStreamExactly) {
  common::Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.uniform();

  std::ostringstream saved;
  rng.saveState(saved);
  std::vector<double> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.gaussian());

  common::Rng restored(999);  // different seed: state must fully override
  std::istringstream in(saved.str());
  restored.loadState(in);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(restored.gaussian(), expected[static_cast<std::size_t>(i)]);
  }
}

TEST(AdamState, SerializeRoundTripContinuesIdentically) {
  const auto fillGrads = [](nn::ParameterList& params, int step) {
    for (nn::Parameter* p : params) {
      auto g = p->grad.data();
      auto w = p->value.data();
      for (std::size_t k = 0; k < g.size(); ++k) {
        g[k] = 0.1 * w[k] + 0.01 * static_cast<double>(step + 1);
      }
    }
  };

  nn::Parameter w1("w", nn::Matrix(2, 2, 1.0));
  nn::ParameterList params1 = {&w1};
  nn::Adam opt1(params1, {1e-2});
  for (int s = 0; s < 3; ++s) {
    fillGrads(params1, s);
    opt1.stepAndZero();
  }
  std::ostringstream state;
  opt1.serializeState(state);

  // Clone weights + restore optimizer state into a fresh Adam.
  nn::Parameter w2("w", w1.value);
  nn::ParameterList params2 = {&w2};
  nn::Adam opt2(params2, {1e-2});
  std::istringstream in(state.str());
  opt2.deserializeState(in);
  EXPECT_EQ(opt2.iterations(), opt1.iterations());

  for (int s = 3; s < 6; ++s) {
    fillGrads(params1, s);
    opt1.stepAndZero();
    fillGrads(params2, s);
    opt2.stepAndZero();
  }
  const auto a = w1.value.data();
  const auto b = w2.value.data();
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], b[k]);  // bit-identical continuation
  }

  // Shape mismatch is rejected.
  nn::Parameter w3("w", nn::Matrix(3, 3));
  nn::ParameterList params3 = {&w3};
  nn::Adam opt3(params3, {1e-2});
  std::istringstream bad(state.str());
  EXPECT_THROW(opt3.deserializeState(bad), std::runtime_error);
}

// ---------------------------------------------------------------------------
// GAN training checkpoint / resume
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

std::vector<trajectory::Trace> tinyDataset() {
  common::Rng rng(9);
  trajectory::HumanWalkModel model;
  auto dataset = model.dataset(48, rng);
  for (auto& t : dataset) t.points = trajectory::resample(t.points, 11);
  return dataset;
}

/// Trains to completion in one call vs crash-at-batch-k then resume; the
/// final parameters (and learned scale) must match bit for bit.
void expectCrashResumeIdentical(std::size_t crashAfterBatches) {
  const auto dataset = tinyDataset();
  gan::GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = 2;  // 3 batches/epoch on 48 traces -> 6 batches total

  // Reference: uninterrupted run (no checkpointing; checkpoint writes draw
  // no randomness, so this is the ground truth either way).
  common::Rng ctorA(31);
  gan::TrajectoryGan ganA(tinyG(), tinyD(), tc, ctorA);
  common::Rng trainA(77);
  ganA.train(dataset, trainA);
  // Every file name carries crashAfterBatches: ctest runs each crash point
  // as its own process, possibly at the same time.
  const std::string tag = std::to_string(crashAfterBatches);
  const std::string refPath = tempPath("gan_ref_" + tag + ".ckpt");
  ganA.save(refPath);
  const std::string reference = common::readFileBytes(refPath);

  // Crashed run: same seeds, killed after crashAfterBatches batches.
  const std::string ckptPath = tempPath("gan_resume_" + tag + ".ckpt");
  std::remove(ckptPath.c_str());
  std::remove((ckptPath + ".bak").c_str());
  tc.checkpoint.path = ckptPath;
  tc.checkpoint.stopAfterBatches = crashAfterBatches;
  common::Rng ctorB(31);
  gan::TrajectoryGan ganB(tinyG(), tinyD(), tc, ctorB);
  common::Rng trainB(77);
  ganB.train(dataset, trainB);

  // Resume in a fresh instance (fresh process analogue): the checkpoint
  // restores parameters, optimizer moments, permutation, and RNG stream.
  tc.checkpoint.stopAfterBatches = 0;
  common::Rng ctorC(31);
  gan::TrajectoryGan ganC(tinyG(), tinyD(), tc, ctorC);
  common::Rng trainC(555);  // overwritten by the checkpointed stream
  ganC.train(dataset, trainC);

  const std::string resumedPath = tempPath("gan_resumed_" + tag + ".ckpt");
  ganC.save(resumedPath);
  EXPECT_EQ(common::readFileBytes(resumedPath), reference)
      << "resume after crash at batch " << crashAfterBatches
      << " diverged from the uninterrupted run";

  std::remove(refPath.c_str());
  std::remove(resumedPath.c_str());
  std::remove(ckptPath.c_str());
  std::remove((ckptPath + ".bak").c_str());
}

TEST(GanCheckpoint, CrashMidFirstEpochResumesBitIdentical) {
  expectCrashResumeIdentical(2);
}

TEST(GanCheckpoint, CrashMidSecondEpochResumesBitIdentical) {
  expectCrashResumeIdentical(4);
}

TEST(GanCheckpoint, CorruptPrimaryFallsBackToPreviousGeneration) {
  const auto dataset = tinyDataset();
  gan::GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = 1;
  const std::string ckptPath = tempPath("gan_torn.ckpt");
  std::remove(ckptPath.c_str());
  std::remove((ckptPath + ".bak").c_str());
  tc.checkpoint.path = ckptPath;
  tc.checkpoint.stopAfterBatches = 2;  // two checkpoints -> .bak exists

  common::Rng ctor(31);
  gan::TrajectoryGan gan(tinyG(), tinyD(), tc, ctor);
  common::Rng train(77);
  gan.train(dataset, train);

  // Tear the primary mid-write; resume must fall back to the .bak (one
  // batch earlier) and still run to completion without throwing.
  writeRaw(ckptPath, "torn checkpoint");
  tc.checkpoint.stopAfterBatches = 0;
  common::Rng ctor2(31);
  gan::TrajectoryGan gan2(tinyG(), tinyD(), tc, ctor2);
  common::Rng train2(555);
  EXPECT_NO_THROW(gan2.train(dataset, train2));

  std::remove(ckptPath.c_str());
  std::remove((ckptPath + ".bak").c_str());
}

}  // namespace
}  // namespace rfp
