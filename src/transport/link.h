#pragma once

/// \file link.h
/// Configuration of the resilient transport, the per-frame channel
/// condition it runs over, and the attempt loop both of its links run
/// (the ghost control link, control_link.h, and the service link,
/// service_wire.h). The channel itself is simulated deterministically:
/// every loss/corruption/reorder/duplicate decision is a pure hash of
/// (link seed, message index, attempt), so experiments reproduce exactly
/// and querying messages out of order changes nothing -- the same
/// contract the fault schedule keeps.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/det_hash.h"
#include "fault/fault_schedule.h"

namespace rfp::transport {

/// Knobs of the retry/backoff/watchdog transport. All defaults are sized
/// for the paper's 50 ms actuation frame (a Raspberry Pi driving the
/// reflector over a short serial/radio hop).
struct TransportConfig {
  /// Off by default: the actuator then drives the controller directly, the
  /// naive single-attempt link of PR 1.
  bool enabled = false;

  // --- Retransmission (within one actuation frame) ------------------------
  /// Maximum retransmissions after the first attempt.
  int maxRetries = 6;
  /// Fraction of the frame period the sender may spend retrying before the
  /// actuation deadline passes and the frame counts as missed.
  double timeoutBudgetFrac = 0.5;
  /// Base retransmit backoff [s]; attempt a waits base * 2^a (capped).
  double backoffBaseS = 0.002;
  /// Backoff ceiling [s].
  double backoffMaxS = 0.02;
  /// Uniform jitter fraction applied to each backoff delay (decorrelates
  /// retry storms; seeded, so still deterministic).
  double backoffJitterFrac = 0.25;

  // --- Schedule / degraded-mode coasting ----------------------------------
  /// Commands per control frame: the current one plus lookahead, so the
  /// reflector can coast through misses on commands planned for exactly
  /// those frames.
  int scheduleDepth = 8;
  /// Largest apparent-position step a coasted command may cause [m]; a
  /// staler schedule that would exceed human-speed continuity parks the
  /// ghost instead.
  double coastMaxApparentStepM = 0.25;

  // --- Watchdog / parking -------------------------------------------------
  /// Consecutive missed frames before the watchdog parks the ghost (the
  /// schedule usually runs out first; this bounds pathological configs).
  int parkAfterMisses = 8;
  /// Frames over which a parked ghost's gain fades to zero (and back in on
  /// re-acquisition). An abrupt disappearance is a radar fingerprint; a
  /// human-plausible fade is not.
  int fadeFrames = 4;
  /// Ceiling of the exponential re-acquisition backoff while parked
  /// [frames].
  int reacquireBackoffMaxFrames = 32;

  /// Salt mixed into the fault-schedule seed to derive the link's own
  /// channel randomness (per ghost, so parallel links decorrelate).
  std::uint64_t seedSalt = 0x5eedc0deull;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// Per-attempt channel condition for one actuation frame.
struct ChannelCondition {
  double lossProb = 0.0;
  double corruptProb = 0.0;
  double reorderProb = 0.0;
  double duplicateProb = 0.0;

  /// The fault schedule's ground truth for this frame.
  static ChannelCondition fromFaults(const fault::FrameFaults& ff) {
    return {ff.controlLossProb, ff.controlCorruptProb, ff.controlReorderProb,
            ff.controlDuplicateProb};
  }

  bool impaired() const {
    return lossProb > 0.0 || corruptProb > 0.0 || reorderProb > 0.0 ||
           duplicateProb > 0.0;
  }
};

/// Cumulative link/transport counters (per link; accumulate() to total).
struct LinkStats {
  long attempts = 0;            ///< transmissions, including retransmits
  long retransmissions = 0;     ///< attempts after the first, per frame
  long timeouts = 0;            ///< frames whose retry budget ran out
  long framesDelivered = 0;     ///< frames accepted by the receiver
  long framesMissed = 0;        ///< frames never accepted in time
  long lostInFlight = 0;        ///< attempts dropped by the channel
  long corruptedDetected = 0;   ///< attempts rejected by CRC
  long reordersRejected = 0;    ///< attempts arriving out of order
  long duplicatesRejected = 0;  ///< retransmits the receiver deduplicated
  long coastFrames = 0;         ///< frames actuated from the schedule buffer
  long parkedFrames = 0;        ///< frames spent parked (fading or dark)
  long reacquisitions = 0;      ///< PARKED -> LINKED transitions

  void accumulate(const LinkStats& o);
};

/// Result of one message's transfer attempt(s).
template <typename Frame>
struct Transfer {
  bool delivered = false;
  int attempts = 0;
  /// The message as the receiver decoded it (bit-identical to the sent
  /// one -- corrupted attempts never survive the CRC).
  std::optional<Frame> frame;
};

/// A link's wire decoder: the message, or std::nullopt (with the reason
/// in \p error, if given) when the bytes do not pass its checks.
template <typename Frame>
using DecodeFn = std::optional<Frame> (*)(std::string_view bytes,
                                          std::string* error);

/// One link's sender and receiver: the attempt loop, with loss,
/// corruption with a real bit flip caught by the real decoder, reordering,
/// ack loss -> duplicates, and exponential backoff with seeded jitter
/// under the message's time budget. Attempt k of message m draws channel
/// decision d from hash(seed, m, streamBase + d + k * kAttemptStride).
class AttemptLoop {
 public:
  AttemptLoop() = default;
  AttemptLoop(const TransportConfig& config, std::uint64_t seed,
              std::uint64_t streamBase)
      : config_(config), seed_(seed), streamBase_(streamBase) {}

  /// Tries to deliver the wire bytes \p encoded of message \p messageIdx
  /// within config.timeoutBudgetFrac * \p budgetDtS seconds; the receiver
  /// reads each copy that arrives through \p decode.
  template <typename Frame>
  Transfer<Frame> transfer(std::uint64_t messageIdx,
                           const std::string& encoded, DecodeFn<Frame> decode,
                           const ChannelCondition& condition,
                           double budgetDtS);

  LinkStats& stats() { return stats_; }
  const LinkStats& stats() const { return stats_; }

 private:
  /// Channel decisions, as offsets from the link's stream base.
  enum Stream : std::uint64_t {
    kLoss,
    kCorrupt,
    kCorruptBit,
    kReorder,
    kAckLoss,
    kBackoffJitter,
  };
  /// Each retransmission attempt gets its own streams so attempts draw
  /// independently; the stride keeps them clear of the fault schedule's
  /// per-frame streams (11..15).
  static constexpr std::uint64_t kAttemptStride = 0x65;

  std::uint64_t stream(Stream s, int attempt) const {
    return streamBase_ + s +
           kAttemptStride * static_cast<std::uint64_t>(attempt);
  }

  TransportConfig config_{};
  std::uint64_t seed_ = 0;
  std::uint64_t streamBase_ = 0;
  LinkStats stats_{};
  std::uint64_t lastAcceptedSeq_ = 0;
  bool everAccepted_ = false;
};

template <typename Frame>
Transfer<Frame> AttemptLoop::transfer(std::uint64_t messageIdx,
                                      const std::string& encoded,
                                      DecodeFn<Frame> decode,
                                      const ChannelCondition& condition,
                                      double budgetDtS) {
  Transfer<Frame> result;
  const double budgetS = config_.timeoutBudgetFrac * budgetDtS;
  double elapsedS = 0.0;

  for (int attempt = 0;; ++attempt) {
    ++result.attempts;
    ++stats_.attempts;
    if (attempt > 0) ++stats_.retransmissions;

    const auto draw = [&](Stream s) {
      return rfp::common::hashUniform(seed_, messageIdx, stream(s, attempt));
    };

    bool arrived = true;
    if (condition.lossProb > 0.0 && draw(kLoss) < condition.lossProb) {
      ++stats_.lostInFlight;
      arrived = false;
    }

    if (arrived && condition.corruptProb > 0.0 &&
        draw(kCorrupt) < condition.corruptProb) {
      // Flip a real bit and let the real CRC catch it: the integrity path
      // is exercised end to end, not assumed.
      std::string wire = encoded;
      const std::uint64_t bit =
          rfp::common::hashBits(seed_, messageIdx,
                                stream(kCorruptBit, attempt)) %
          (wire.size() * 8);
      wire[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(wire[bit / 8]) ^ (1u << (bit % 8)));
      if (!decode(wire, nullptr).has_value()) {
        ++stats_.corruptedDetected;  // receiver stays silent -> retransmit
        arrived = false;
      }
      // A flip the CRC *would* miss cannot happen for single bits; if the
      // decode improbably succeeded the message is genuinely intact.
    }

    if (arrived && condition.reorderProb > 0.0 &&
        draw(kReorder) < condition.reorderProb) {
      // Delivered out of order: by the time it arrives the receiver has
      // moved past this sequence number and rejects it as stale.
      ++stats_.reordersRejected;
      arrived = false;
    }

    if (arrived) {
      std::optional<Frame> decoded = decode(encoded, nullptr);
      if (decoded.has_value() &&
          (!everAccepted_ || decoded->seq > lastAcceptedSeq_)) {
        lastAcceptedSeq_ = decoded->seq;
        everAccepted_ = true;
        result.delivered = true;
        result.frame = std::move(decoded);
        ++stats_.framesDelivered;
        if (condition.duplicateProb > 0.0 &&
            draw(kAckLoss) < condition.duplicateProb) {
          // The ack was lost: the sender retransmits once more and the
          // receiver rejects the duplicate sequence number (and re-acks).
          ++result.attempts;
          ++stats_.attempts;
          ++stats_.retransmissions;
          ++stats_.duplicatesRejected;
        }
        return result;
      }
      // Stale/duplicate sequence number (only reachable if a caller reuses
      // a seq): rejected, retransmission will not help either, but the
      // budget loop below still terminates.
      ++stats_.duplicatesRejected;
    }

    if (attempt >= config_.maxRetries) {
      ++stats_.timeouts;
      break;
    }
    // Exponential backoff with seeded jitter before the next attempt.
    const double base = std::min(
        config_.backoffMaxS, config_.backoffBaseS * std::ldexp(1.0, attempt));
    const double jitter =
        1.0 + config_.backoffJitterFrac * draw(kBackoffJitter);
    elapsedS += base * jitter;
    if (elapsedS > budgetS) {
      ++stats_.timeouts;
      break;
    }
  }
  ++stats_.framesMissed;
  return result;
}

}  // namespace rfp::transport
