/// \file test_transport.cpp
/// The resilient control-link transport: wire framing (CRC-rejection of
/// every single-bit flip), the heartbeat watchdog state machine, the
/// deterministic lossy channel (both links' counters and per-message
/// outcomes pinned at fixed seeds under every impairment), and the
/// end-to-end guarantees -- a zero-impairment transport is bit-identical
/// to the direct actuation path, and under heavy loss it both tracks
/// better and fingerprints less than the naive single-attempt link.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/det_hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "privacy/continuity_fingerprint.h"
#include "trajectory/human_walk.h"
#include "transport/control_link.h"
#include "transport/framing.h"
#include "transport/link.h"
#include "transport/service_wire.h"

namespace rfp::transport {
namespace {

reflector::ControlCommand sampleCommand(double salt) {
  reflector::ControlCommand cmd;
  cmd.antennaIndex = 3;
  cmd.fSwitchHz = 52341.5 + salt;
  cmd.gain = 0.8125 + salt * 1e-3;
  cmd.phaseOffsetRad = -1.25 + salt * 1e-2;
  cmd.intendedWorld = {2.5 + salt, -3.75};
  cmd.intendedRangeM = 4.5 + salt;
  cmd.intendedAngleRad = 0.33;
  cmd.spoofedRangeM = 6.0;
  cmd.decision = reflector::HealthDecision::kNominal;
  return cmd;
}

ControlFrame sampleFrame(std::size_t commands = 3) {
  ControlFrame frame;
  frame.seq = 0x1122334455ull;
  frame.ghostId = 1007;
  for (std::size_t i = 0; i < commands; ++i) {
    frame.schedule.push_back(sampleCommand(0.1 * static_cast<double>(i)));
  }
  return frame;
}

TEST(Framing, RoundTripIsBitExact) {
  const ControlFrame frame = sampleFrame();
  const std::string bytes = encodeFrame(frame);
  const auto decoded = decodeFrame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, frame.seq);
  EXPECT_EQ(decoded->ghostId, frame.ghostId);
  ASSERT_EQ(decoded->schedule.size(), frame.schedule.size());
  for (std::size_t i = 0; i < frame.schedule.size(); ++i) {
    const auto& a = frame.schedule[i];
    const auto& b = decoded->schedule[i];
    EXPECT_EQ(a.antennaIndex, b.antennaIndex);
    EXPECT_EQ(a.decision, b.decision);
    // Doubles must survive the wire bit-exactly, not just approximately.
    EXPECT_EQ(a.fSwitchHz, b.fSwitchHz);
    EXPECT_EQ(a.gain, b.gain);
    EXPECT_EQ(a.phaseOffsetRad, b.phaseOffsetRad);
    EXPECT_EQ(a.intendedWorld.x, b.intendedWorld.x);
    EXPECT_EQ(a.intendedWorld.y, b.intendedWorld.y);
    EXPECT_EQ(a.intendedRangeM, b.intendedRangeM);
    EXPECT_EQ(a.intendedAngleRad, b.intendedAngleRad);
    EXPECT_EQ(a.spoofedRangeM, b.spoofedRangeM);
  }
}

TEST(Framing, EverySingleBitFlipIsRejected) {
  const std::string bytes = encodeFrame(sampleFrame(2));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string corrupted = bytes;
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_FALSE(decodeFrame(corrupted).has_value())
        << "bit " << bit << " flip went undetected";
  }
}

TEST(Framing, TruncationIsRejectedWithReason) {
  const std::string bytes = encodeFrame(sampleFrame());
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::string error;
    EXPECT_FALSE(decodeFrame(bytes.substr(0, len), &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(Framing, EmptyScheduleRoundTrips) {
  ControlFrame frame;
  frame.seq = 7;
  frame.ghostId = 1;
  const auto decoded = decodeFrame(encodeFrame(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->schedule.empty());
}

TEST(Watchdog, DegradesThenParksThenReacquires) {
  TransportConfig config;
  config.parkAfterMisses = 3;
  LinkWatchdog dog(config);
  EXPECT_EQ(dog.state(), LinkState::kLinked);

  dog.onMiss(10);
  EXPECT_EQ(dog.state(), LinkState::kDegraded);
  dog.onMiss(11);
  EXPECT_EQ(dog.state(), LinkState::kDegraded);
  dog.onMiss(12);  // third consecutive miss: park
  EXPECT_EQ(dog.state(), LinkState::kParked);

  EXPECT_TRUE(dog.onDelivery(20));  // re-acquisition
  EXPECT_EQ(dog.state(), LinkState::kLinked);
  EXPECT_EQ(dog.missStreak(), 0);
  EXPECT_FALSE(dog.onDelivery(21));  // nominal delivery: not a re-acquire
}

TEST(Watchdog, ParkedReacquisitionBacksOffExponentially) {
  TransportConfig config;
  config.parkAfterMisses = 1;
  config.reacquireBackoffMaxFrames = 8;
  LinkWatchdog dog(config);

  dog.onMiss(0);
  ASSERT_EQ(dog.state(), LinkState::kParked);
  // While parked, attempts are gated; each failed attempt doubles the wait.
  std::vector<std::uint64_t> attemptFrames;
  for (std::uint64_t frame = 1; frame < 64; ++frame) {
    if (!dog.shouldAttempt(frame)) continue;
    attemptFrames.push_back(frame);
    dog.onMiss(frame);
  }
  ASSERT_GE(attemptFrames.size(), 3u);
  std::uint64_t prevGap = 0;
  for (std::size_t i = 1; i < attemptFrames.size(); ++i) {
    const std::uint64_t gap = attemptFrames[i] - attemptFrames[i - 1];
    EXPECT_GE(gap, prevGap);  // non-decreasing
    EXPECT_LE(gap, static_cast<std::uint64_t>(
                       config.reacquireBackoffMaxFrames));
    prevGap = gap;
  }
  EXPECT_EQ(prevGap,
            static_cast<std::uint64_t>(config.reacquireBackoffMaxFrames));
}

TEST(ControlLink, CleanChannelDeliversFirstAttempt) {
  GhostControlLink link(TransportConfig{}, 0xabcdef);
  const ChannelCondition clean;
  for (std::uint64_t f = 0; f < 50; ++f) {
    ControlFrame frame = sampleFrame(1);
    frame.seq = f;
    const TransferResult r = link.transfer(f, frame, clean, 0.05);
    ASSERT_TRUE(r.delivered);
    EXPECT_EQ(r.attempts, 1);
    ASSERT_TRUE(r.frame.has_value());
    EXPECT_EQ(r.frame->seq, f);
  }
  EXPECT_EQ(link.stats().retransmissions, 0);
  EXPECT_EQ(link.stats().framesMissed, 0);
  EXPECT_EQ(link.stats().framesDelivered, 50);
}

TEST(ControlLink, LossyChannelIsDeterministicAndRecovers) {
  const TransportConfig config;
  ChannelCondition lossy;
  lossy.lossProb = 0.4;
  lossy.corruptProb = 0.1;
  lossy.duplicateProb = 0.1;

  const auto run = [&](std::uint64_t seed) {
    GhostControlLink link(config, seed);
    std::vector<int> attempts;
    for (std::uint64_t f = 0; f < 200; ++f) {
      ControlFrame frame = sampleFrame(1);
      frame.seq = f;
      attempts.push_back(link.transfer(f, frame, lossy, 0.05).attempts);
    }
    return std::make_pair(attempts, link.stats());
  };

  const auto [attemptsA, statsA] = run(0x5eed);
  const auto [attemptsB, statsB] = run(0x5eed);
  EXPECT_EQ(attemptsA, attemptsB);  // pure hash channel: reproducible
  EXPECT_EQ(statsA.framesDelivered, statsB.framesDelivered);

  // Retransmission converts most per-attempt loss into delivery.
  EXPECT_GT(statsA.retransmissions, 0L);
  EXPECT_GT(statsA.corruptedDetected, 0L);
  EXPECT_GT(statsA.framesDelivered, 180L);

  const auto [attemptsC, statsC] = run(0x07e4);
  (void)attemptsC;
  EXPECT_NE(statsA.attempts, statsC.attempts);  // seeds decorrelate
}

TEST(ControlLink, DeadChannelParksThenReacquiresWhenRestored) {
  // Drive link + watchdog the way the actuator does: transfer, then report
  // the outcome to the watchdog; respect its backoff gate while parked.
  TransportConfig config;
  config.parkAfterMisses = 2;
  GhostControlLink link(config, 0xdead);
  ChannelCondition dead;
  dead.lossProb = 1.0;

  std::uint64_t f = 0;
  for (; f < 20; ++f) {
    if (!link.watchdog().shouldAttempt(f)) continue;
    ControlFrame frame = sampleFrame(1);
    frame.seq = f;
    ASSERT_FALSE(link.transfer(f, frame, dead, 0.05).delivered);
    link.watchdog().onMiss(f);
  }
  EXPECT_EQ(link.watchdog().state(), LinkState::kParked);
  EXPECT_GT(link.stats().timeouts, 0L);

  // Channel heals: the next allowed attempt re-acquires.
  const ChannelCondition clean;
  bool reacquired = false;
  for (; f < 200 && !reacquired; ++f) {
    if (!link.watchdog().shouldAttempt(f)) continue;
    ControlFrame frame = sampleFrame(1);
    frame.seq = f;
    if (link.transfer(f, frame, clean, 0.05).delivered) {
      reacquired = link.watchdog().onDelivery(f);
    } else {
      link.watchdog().onMiss(f);
    }
  }
  EXPECT_TRUE(reacquired);
  EXPECT_EQ(link.watchdog().state(), LinkState::kLinked);
}

// ---------------------------------------------------------------------------
// End-to-end integration through the spoofing harness.
// ---------------------------------------------------------------------------

trajectory::Trace compactTrace(std::uint64_t seed) {
  rfp::common::Rng rng(seed);
  trajectory::HumanWalkModel model;
  trajectory::Trace trace;
  do {
    trace = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(trace) > 3.5);
  return trace;
}

fault::FaultConfig linkOnlyFaults(double lossProb) {
  fault::FaultConfig fc;
  fc.intensity = 1.0;
  fc.deadAntennaProb = 0.0;
  fc.stuckSwitchRatePerS = 0.0;
  fc.switchJitterRel = 0.0;
  fc.switchSettleRel = 0.0;
  fc.gainDriftLogSigma = 0.0;
  fc.lnaSaturationRatePerS = 0.0;
  fc.phaseShifterBits = 0;
  fc.phaseStuckBitRatePerS = 0.0;
  fc.radarDropProb = 0.0;
  fc.adcSaturationRatePerS = 0.0;
  fc.controlDropProb = lossProb;
  fc.controlCorruptProb = lossProb / 3.0;
  fc.controlReorderProb = 0.05;
  fc.controlDuplicateProb = 0.05;
  fc.linkBurstRatePerS = 0.05;
  fc.linkBurstMeanDurS = 1.0;
  fc.linkBurstLossProb = 0.85;
  return fc;
}

/// Extends PR 1's intensity-0 guarantee to the transport: with zero channel
/// impairment the transport-mediated actuation path must be bit-identical
/// to the direct one (encode/decode round-trips commands exactly, no
/// retransmits fire, the watchdog never leaves LINKED).
TEST(TransportIntegration, ZeroImpairmentBitIdenticalToDirectPath) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(7);

  rfp::common::Rng rngA(21);
  core::FaultRunOptions direct;  // intensity 0, transport off
  const auto base =
      core::runFaultedSpoofingExperiment(scenario, trace, direct, rngA);

  rfp::common::Rng rngB(21);
  core::FaultRunOptions viaLink;  // intensity 0, transport on
  viaLink.transport.enabled = true;
  const auto linked =
      core::runFaultedSpoofingExperiment(scenario, trace, viaLink, rngB);

  // The link did real work (every frame crossed the wire)...
  EXPECT_GT(linked.linkStats.framesDelivered, 0L);
  EXPECT_EQ(linked.linkStats.framesMissed, 0L);
  EXPECT_EQ(linked.linkStats.retransmissions, 0L);
  EXPECT_EQ(base.linkStats.framesDelivered, 0L);  // direct path: no link

  // ...and changed nothing, bit for bit.
  EXPECT_EQ(base.framesTotal, linked.framesTotal);
  EXPECT_EQ(base.framesDetected, linked.framesDetected);
  ASSERT_EQ(base.measured.size(), linked.measured.size());
  for (std::size_t i = 0; i < base.measured.size(); ++i) {
    EXPECT_EQ(base.measured[i].x, linked.measured[i].x);
    EXPECT_EQ(base.measured[i].y, linked.measured[i].y);
  }
  ASSERT_EQ(base.locationErrorsM.size(), linked.locationErrorsM.size());
  for (std::size_t i = 0; i < base.locationErrorsM.size(); ++i) {
    EXPECT_EQ(base.locationErrorsM[i], linked.locationErrorsM[i]);
  }
  ASSERT_EQ(base.ledgerApparent.size(), linked.ledgerApparent.size());
  for (std::size_t i = 0; i < base.ledgerApparent.size(); ++i) {
    EXPECT_EQ(base.ledgerApparent[i].x, linked.ledgerApparent[i].x);
    EXPECT_EQ(base.ledgerApparent[i].y, linked.ledgerApparent[i].y);
    EXPECT_EQ(base.ledgerEmitted[i], 1);
    EXPECT_EQ(linked.ledgerEmitted[i], 1);
  }
}

TEST(TransportIntegration, TransportBeatsNaiveReplayOnLossyLink) {
  const core::Scenario scenario = core::makeHomeScenario();
  const trajectory::Trace trace = compactTrace(7);
  const double loss = 0.3;

  core::FaultRunOptions naive;
  naive.faults = linkOnlyFaults(loss);
  rfp::common::Rng rngNaive(21);
  const auto naiveRun =
      core::runFaultedSpoofingExperiment(scenario, trace, naive, rngNaive);

  core::FaultRunOptions resilient;
  resilient.faults = linkOnlyFaults(loss);
  resilient.transport.enabled = true;
  rfp::common::Rng rngLink(21);
  const auto linkRun = core::runFaultedSpoofingExperiment(
      scenario, trace, resilient, rngLink);

  // The channel actually bit: the naive link stalled or went dark.
  EXPECT_GT(naiveRun.decisionsStaleReplay + naiveRun.decisionsPaused, 0u);
  // The transport spent retransmissions to deliver frames instead.
  EXPECT_GT(linkRun.linkStats.retransmissions, 0L);
  EXPECT_GT(linkRun.linkStats.framesDelivered,
            static_cast<long>(linkRun.framesTotal) / 2);

  ASSERT_FALSE(naiveRun.locationErrorsM.empty());
  ASSERT_FALSE(linkRun.locationErrorsM.empty());
  const double naiveMedian = rfp::common::median(naiveRun.locationErrorsM);
  const double linkMedian = rfp::common::median(linkRun.locationErrorsM);
  EXPECT_LE(linkMedian, naiveMedian + 0.01);

  // Detectability: the transport's actuated track must fingerprint no more
  // than the naive link's.
  privacy::FingerprintConfig fp;
  fp.frameDtS = 1.0 / scenario.sensing.radar.frameRateHz;
  const auto naiveFp = privacy::fingerprintTrack(
      naiveRun.ledgerIntended, naiveRun.ledgerApparent,
      naiveRun.ledgerEmitted, fp);
  const auto linkFp = privacy::fingerprintTrack(
      linkRun.ledgerIntended, linkRun.ledgerApparent, linkRun.ledgerEmitted,
      fp);
  EXPECT_LE(linkFp.fingerprintRate, naiveFp.fingerprintRate);
}

// ---------------------------------------------------------------------------
// Both links' attempt loops, pinned at fixed seeds
// ---------------------------------------------------------------------------

/// Every counter of \p s, in declaration order.
std::string statsLine(const LinkStats& s) {
  std::ostringstream out;
  out << s.attempts << ' ' << s.retransmissions << ' ' << s.timeouts << ' '
      << s.framesDelivered << ' ' << s.framesMissed << ' ' << s.lostInFlight
      << ' ' << s.corruptedDetected << ' ' << s.reordersRejected << ' '
      << s.duplicatesRejected << ' ' << s.coastFrames << ' ' << s.parkedFrames
      << ' ' << s.reacquisitions;
  return out.str();
}

/// A link's counters after a fixed message sequence, and a hash of every
/// message's outcome (delivered, attempts) in order.
struct PinnedRun {
  std::string stats;
  std::uint64_t outcomes = 0;
};

/// Sends 400 messages through \p transfer. Message m carries seq m, except
/// that every 23rd message repeats the previous seq, so the stale-sequence
/// rejection runs too. \p send(m, seq) transfers one message and returns
/// its result; a delivered message must decode to the one sent.
template <typename Send>
PinnedRun pinRun(Send send) {
  PinnedRun run;
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t m = 0; m < 400; ++m) {
    const std::uint64_t seq = m % 23 == 22 ? m - 1 : m;
    const auto [delivered, attempts] = send(m, seq);
    h = rfp::common::splitmix64(
        h ^ (static_cast<std::uint64_t>(attempts) << 1 | (delivered ? 1 : 0)));
  }
  run.outcomes = h;
  return run;
}

/// One channel condition, and both links' counters and outcome hash
/// under it (recorded when each link ran its own copy of the loop).
struct PinnedCase {
  const char* name;
  ChannelCondition condition;
  double budgetDtS;  ///< frame period (control) or message budget (service)
  const char* controlStats;
  std::uint64_t controlOutcomes;
  const char* serviceStats;
  std::uint64_t serviceOutcomes;
};

// Each impairment alone, all of them together, and a long budget under
// which the retry cap, not the time budget, ends a message. Counters are
// in statsLine's order.
const PinnedCase kPinnedCases[] = {
    {"clean", {}, 0.05,
     "451 51 17 383 17 0 0 0 68 0 0 0", 0xa8ccf4343c0d4cd7ull,
     "451 51 17 383 17 0 0 0 68 0 0 0", 0xa8ccf4343c0d4cd7ull},
    {"loss", {0.35, 0.0, 0.0, 0.0}, 0.05,
     "661 261 21 379 21 238 0 0 44 0 0 0", 0x61111004ced8d6a7ull,
     "665 265 21 379 21 241 0 0 45 0 0 0", 0x61e6d16679004118ull},
    {"corrupt", {0.0, 0.35, 0.0, 0.0}, 0.05,
     "627 227 19 381 19 0 208 0 38 0 0 0", 0x31c795df7205261cull,
     "667 267 28 372 28 0 251 0 44 0 0 0", 0xdf859468f5592f1eull},
    {"reorder", {0.0, 0.0, 0.35, 0.0}, 0.05,
     "644 244 19 381 19 0 0 219 44 0 0 0", 0x64e4d710c92a022dull,
     "631 231 22 378 22 0 0 209 44 0 0 0", 0xf0eee54f0ea651a4ull},
    {"ackloss", {0.0, 0.0, 0.0, 0.35}, 0.05,
     "573 173 17 383 17 0 0 0 190 0 0 0", 0xbc80ef96fae56fedull,
     "596 196 17 383 17 0 0 0 213 0 0 0", 0xc37f2155a225f73full},
    {"mixed", {0.2, 0.15, 0.1, 0.1}, 0.05,
     "715 315 24 376 24 131 95 50 63 0 0 0", 0x5658bd0ee8989f91ull,
     "717 317 23 377 23 130 75 47 88 0 0 0", 0x5c84c5a28f0139b2ull},
    {"mixed-long-budget", {0.5, 0.2, 0.1, 0.1}, 1.0,
     "1240 840 32 368 32 629 119 60 64 0 0 0", 0x1a0cf43cfdf55b2cull,
     "1170 770 36 364 36 579 104 37 86 0 0 0", 0xbc2560262d3c31fbull},
};

PinnedRun controlRun(const PinnedCase& imp) {
  GhostControlLink link(TransportConfig{}, 0xc0ffee);
  PinnedRun run = pinRun([&](std::uint64_t m, std::uint64_t seq) {
    ControlFrame frame = sampleFrame(2);
    frame.seq = seq;
    const TransferResult r =
        link.transfer(m, frame, imp.condition, imp.budgetDtS);
    if (r.delivered) {
      EXPECT_TRUE(r.frame.has_value() && r.frame->seq == seq &&
                  r.frame->schedule.size() == 2)
          << imp.name << " message " << m;
    }
    return std::make_pair(r.delivered, r.attempts);
  });
  run.stats = statsLine(link.stats());
  return run;
}

PinnedRun serviceRun(const PinnedCase& imp) {
  ServiceLink link(TransportConfig{}, 0xc0ffee);
  PinnedRun run = pinRun([&](std::uint64_t m, std::uint64_t seq) {
    ServiceFrame frame;
    frame.seq = seq;
    frame.type = static_cast<std::uint16_t>(m % 5);
    frame.payload = "epoch " + std::to_string(m);
    const ServiceTransferResult r =
        link.transfer(m, frame, imp.condition, imp.budgetDtS);
    if (r.delivered) {
      EXPECT_TRUE(r.frame.has_value() && r.frame->seq == seq &&
                  r.frame->type == frame.type &&
                  r.frame->payload == frame.payload)
          << imp.name << " message " << m;
    }
    return std::make_pair(r.delivered, r.attempts);
  });
  run.stats = statsLine(link.stats());
  return run;
}

TEST(LinkAttemptLoop, BothLinksKeepTheirCountersAndOutcomes) {
  for (const PinnedCase& c : kPinnedCases) {
    const PinnedRun control = controlRun(c);
    EXPECT_EQ(control.stats, c.controlStats) << c.name;
    EXPECT_EQ(control.outcomes, c.controlOutcomes) << c.name;
    const PinnedRun service = serviceRun(c);
    EXPECT_EQ(service.stats, c.serviceStats) << c.name;
    EXPECT_EQ(service.outcomes, c.serviceOutcomes) << c.name;
  }
}

TEST(TransportConfigValidation, RejectsBadKnobs) {
  TransportConfig config;
  config.maxRetries = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.timeoutBudgetFrac = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.scheduleDepth = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.fadeFrames = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace rfp::transport
