#include "transport/link.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace rfp::transport {

namespace {

void requirePositive(double v, const char* name) {
  if (!std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument(std::string("TransportConfig: ") + name +
                                " must be > 0");
  }
}

}  // namespace

void TransportConfig::validate() const {
  if (maxRetries < 0) {
    throw std::invalid_argument("TransportConfig: maxRetries must be >= 0");
  }
  if (!std::isfinite(timeoutBudgetFrac) || timeoutBudgetFrac <= 0.0 ||
      timeoutBudgetFrac > 1.0) {
    throw std::invalid_argument(
        "TransportConfig: timeoutBudgetFrac must be in (0, 1]");
  }
  requirePositive(backoffBaseS, "backoffBaseS");
  requirePositive(backoffMaxS, "backoffMaxS");
  if (!std::isfinite(backoffJitterFrac) || backoffJitterFrac < 0.0 ||
      backoffJitterFrac > 1.0) {
    throw std::invalid_argument(
        "TransportConfig: backoffJitterFrac must be in [0, 1]");
  }
  if (scheduleDepth < 1) {
    throw std::invalid_argument("TransportConfig: scheduleDepth must be >= 1");
  }
  requirePositive(coastMaxApparentStepM, "coastMaxApparentStepM");
  if (parkAfterMisses < 1) {
    throw std::invalid_argument(
        "TransportConfig: parkAfterMisses must be >= 1");
  }
  if (fadeFrames < 1) {
    throw std::invalid_argument("TransportConfig: fadeFrames must be >= 1");
  }
  if (reacquireBackoffMaxFrames < 1) {
    throw std::invalid_argument(
        "TransportConfig: reacquireBackoffMaxFrames must be >= 1");
  }
}

void LinkStats::accumulate(const LinkStats& o) {
  attempts += o.attempts;
  retransmissions += o.retransmissions;
  timeouts += o.timeouts;
  framesDelivered += o.framesDelivered;
  framesMissed += o.framesMissed;
  lostInFlight += o.lostInFlight;
  corruptedDetected += o.corruptedDetected;
  reordersRejected += o.reordersRejected;
  duplicatesRejected += o.duplicatesRejected;
  coastFrames += o.coastFrames;
  parkedFrames += o.parkedFrames;
  reacquisitions += o.reacquisitions;
}

}  // namespace rfp::transport
