#include "transport/service_wire.h"

#include <cstring>

#include "common/crc32.h"

namespace rfp::transport {

namespace {

template <typename T>
void put(std::string& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Reads a T at \p offset, advancing it. Returns false on truncation.
template <typename T>
bool get(std::string_view bytes, std::size_t& offset, T* value) {
  if (bytes.size() - offset < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return true;
}

}  // namespace

std::string encodeServiceFrame(const ServiceFrame& frame) {
  std::string out;
  out.reserve(20 + frame.payload.size() + 4);
  put<std::uint32_t>(out, kServiceMagic);
  put<std::uint16_t>(out, kServiceVersion);
  put<std::uint64_t>(out, frame.seq);
  put<std::uint16_t>(out, frame.type);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  put<std::uint32_t>(out, rfp::common::crc32(out.data(), out.size()));
  return out;
}

std::optional<ServiceFrame> decodeServiceFrame(std::string_view bytes,
                                               std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<ServiceFrame> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (bytes.size() < sizeof(std::uint32_t)) return fail("truncated frame");

  // CRC first: everything else is untrustworthy until it matches.
  const std::size_t bodyLen = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t wireCrc = 0;
  std::memcpy(&wireCrc, bytes.data() + bodyLen, sizeof(wireCrc));
  if (rfp::common::crc32(bytes.data(), bodyLen) != wireCrc) {
    return fail("CRC mismatch");
  }

  std::size_t offset = 0;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  ServiceFrame frame;
  std::uint32_t payloadLen = 0;
  if (!get(bytes, offset, &magic) || !get(bytes, offset, &version) ||
      !get(bytes, offset, &frame.seq) || !get(bytes, offset, &frame.type) ||
      !get(bytes, offset, &payloadLen)) {
    return fail("truncated header");
  }
  if (magic != kServiceMagic) return fail("bad magic");
  if (version != kServiceVersion) return fail("unsupported version");
  if (bodyLen - offset != payloadLen) return fail("bad length");
  frame.payload.assign(bytes.data() + offset, payloadLen);
  return frame;
}

ServiceTransferResult ServiceLink::transfer(std::uint64_t messageIdx,
                                            const ServiceFrame& frame,
                                            const ChannelCondition& condition,
                                            double budgetDtS) {
  return loop_.transfer(messageIdx, encodeServiceFrame(frame),
                        decodeServiceFrame, condition, budgetDtS);
}

}  // namespace rfp::transport
