#pragma once

/// \file control_link.h
/// The resilient Pi -> reflector control link: a per-ghost sender/receiver
/// pair over a deterministic lossy channel, plus the heartbeat watchdog
/// that degrades gracefully when the link goes quiet.
///
/// Every control frame doubles as a heartbeat. The watchdog's state machine:
///
///   LINKED --miss--> DEGRADED --(streak >= parkAfterMisses or
///            schedule exhausted)--> PARKED --delivery--> LINKED
///
/// DEGRADED coasts on the remaining schedule entries (commands planned for
/// exactly these frames), bounded by human-speed continuity. PARKED fades
/// the ghost's gain to zero over fadeFrames -- an abrupt disappearance is a
/// radar fingerprint, a plausible fade is not -- and re-acquisition attempts
/// back off exponentially so a dead link is not hammered every frame.

#include <cstdint>

#include "transport/framing.h"
#include "transport/link.h"

namespace rfp::transport {

/// Watchdog/link health state.
enum class LinkState {
  kLinked,    ///< deliveries arriving; nominal actuation
  kDegraded,  ///< missing frames; coasting on the delivered schedule
  kParked,    ///< link considered down; ghost faded out, re-acquiring
};

/// Heartbeat watchdog: tracks the miss streak, decides the link state, and
/// gates re-acquisition attempts with exponential backoff while parked.
/// Pure state machine (no channel access) so it is unit-testable.
class LinkWatchdog {
 public:
  LinkWatchdog() = default;
  explicit LinkWatchdog(const TransportConfig& config) : config_(config) {}

  LinkState state() const { return state_; }
  int missStreak() const { return missStreak_; }

  /// Whether the sender should spend link attempts on \p frame. Always true
  /// unless parked; while parked, true only when the re-acquisition backoff
  /// has elapsed.
  bool shouldAttempt(std::uint64_t frame) const {
    return state_ != LinkState::kParked || frame >= nextAttemptFrame_;
  }

  /// A frame was accepted by the receiver. Returns true when this was a
  /// re-acquisition (the link was parked).
  bool onDelivery(std::uint64_t frame);

  /// The frame's deadline passed without an accepted delivery.
  void onMiss(std::uint64_t frame);

  /// Force-park (coast schedule exhausted or continuity violated).
  void park(std::uint64_t frame);

 private:
  TransportConfig config_{};
  LinkState state_ = LinkState::kLinked;
  int missStreak_ = 0;
  int backoffFrames_ = 1;
  std::uint64_t nextAttemptFrame_ = 0;
};

/// Result of one frame's transfer attempt(s).
using TransferResult = Transfer<ControlFrame>;

/// Per-ghost control link: the attempt loop (link.h) over ControlFrames,
/// plus the heartbeat watchdog its caller reports outcomes to.
/// Deterministic: attempt k of frame f draws from hash(seed, f, k).
class GhostControlLink {
 public:
  GhostControlLink() = default;
  GhostControlLink(const TransportConfig& config, std::uint64_t seed)
      : watchdog_(config), loop_(config, seed, kStreamBase) {}

  /// Tries to deliver \p frame within this actuation frame's budget.
  TransferResult transfer(std::uint64_t frameIdx, const ControlFrame& frame,
                          const ChannelCondition& condition, double frameDtS);

  LinkWatchdog& watchdog() { return watchdog_; }
  const LinkWatchdog& watchdog() const { return watchdog_; }
  LinkStats& stats() { return loop_.stats(); }
  const LinkStats& stats() const { return loop_.stats(); }

 private:
  /// Channel streams 21..26 at attempt 0.
  static constexpr std::uint64_t kStreamBase = 21;

  LinkWatchdog watchdog_{};
  AttemptLoop loop_{};
};

}  // namespace rfp::transport
