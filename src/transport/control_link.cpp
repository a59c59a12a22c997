#include "transport/control_link.h"

#include <algorithm>

namespace rfp::transport {

bool LinkWatchdog::onDelivery(std::uint64_t) {
  const bool reacquired = state_ == LinkState::kParked;
  state_ = LinkState::kLinked;
  missStreak_ = 0;
  backoffFrames_ = 1;
  return reacquired;
}

void LinkWatchdog::onMiss(std::uint64_t frame) {
  ++missStreak_;
  if (state_ == LinkState::kParked) {
    // Failed re-acquisition attempt: back off exponentially.
    backoffFrames_ =
        std::min(2 * backoffFrames_, config_.reacquireBackoffMaxFrames);
    nextAttemptFrame_ = frame + static_cast<std::uint64_t>(backoffFrames_);
    return;
  }
  if (missStreak_ >= config_.parkAfterMisses) {
    park(frame);
  } else {
    state_ = LinkState::kDegraded;
  }
}

void LinkWatchdog::park(std::uint64_t frame) {
  state_ = LinkState::kParked;
  backoffFrames_ = 1;
  nextAttemptFrame_ = frame + 1;
}

TransferResult GhostControlLink::transfer(std::uint64_t frameIdx,
                                          const ControlFrame& frame,
                                          const ChannelCondition& condition,
                                          double frameDtS) {
  return loop_.transfer(frameIdx, encodeFrame(frame), decodeFrame, condition,
                        frameDtS);
}

}  // namespace rfp::transport
