#pragma once

/// \file service_wire.h
/// Wire format of the fleet scenario service: generic CRC-framed messages
/// between a client and the service, one layer below the protocol structs
/// in src/service. Where framing.h carries a fixed actuation schedule,
/// these frames carry an *opaque* payload plus a type tag, so the service
/// protocol can evolve without touching the integrity layer.
///
/// Layout (host-native multi-byte fields; the link is simulated
/// in-process, matching framing.h's contract):
///
///   u32  magic   'RFPS'
///   u16  version (kServiceVersion)
///   u64  seq     (sender message index; receiver rejects stale/duplicate)
///   u16  type    (protocol message type; opaque here)
///   u32  payload length
///   ...  payload bytes
///   u32  CRC-32 over every preceding byte
///
/// decodeServiceFrame verifies CRC first, then magic/version/length, so a
/// bit-flipped or truncated message is rejected (triggering a retransmit),
/// never interpreted.
///
/// ServiceLink runs the control link's attempt loop (link.h: loss,
/// corruption with real bit flips caught by the real CRC, reordering, ack
/// loss -> duplicates, exponential backoff under a per-message budget)
/// over these frames, on its own deterministic hash streams. A lossy
/// client link therefore degrades a metric stream -- missed epochs --
/// without ever corrupting one or taking the service down.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "transport/link.h"

namespace rfp::transport {

inline constexpr std::uint32_t kServiceMagic = 0x53504652u;  // 'RFPS'
inline constexpr std::uint16_t kServiceVersion = 1;

/// One service message on the wire: a protocol type tag plus opaque
/// payload bytes. seq orders messages per direction of one session.
struct ServiceFrame {
  std::uint64_t seq = 0;
  std::uint16_t type = 0;
  std::string payload;
};

/// Serializes \p frame to wire bytes (CRC appended).
std::string encodeServiceFrame(const ServiceFrame& frame);

/// Parses wire bytes. Returns std::nullopt (and the reason in \p error, if
/// given) on bad magic/version, truncation, bad length, or CRC mismatch.
std::optional<ServiceFrame> decodeServiceFrame(std::string_view bytes,
                                               std::string* error = nullptr);

/// Result of one message's transfer attempt(s).
using ServiceTransferResult = Transfer<ServiceFrame>;

/// Client <-> service message link: the attempt loop (link.h) over
/// ServiceFrames. Deterministic: attempt k of message m draws from
/// hash(seed, m, k) on streams disjoint from both the fault schedule's
/// (11..15) and the ghost control link's (21..26), so a scenario that uses
/// all three stays reproducible.
class ServiceLink {
 public:
  ServiceLink() = default;
  ServiceLink(const TransportConfig& config, std::uint64_t seed)
      : loop_(config, seed, kStreamBase) {}

  /// Tries to deliver \p frame within this message's budget (\p budgetDtS
  /// plays the actuation frame period's role from the control link).
  ServiceTransferResult transfer(std::uint64_t messageIdx,
                                 const ServiceFrame& frame,
                                 const ChannelCondition& condition,
                                 double budgetDtS);

  LinkStats& stats() { return loop_.stats(); }
  const LinkStats& stats() const { return loop_.stats(); }

 private:
  /// Channel streams 31..36 at attempt 0.
  static constexpr std::uint64_t kStreamBase = 31;

  AttemptLoop loop_{};
};

}  // namespace rfp::transport
