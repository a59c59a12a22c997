#pragma once

/// \file env_count.h
/// The parser behind the positive whole-number environment knob
/// `RFP_THREADS`. `strtoul` would accept a leading minus sign and wrap it
/// to a huge count (`RFP_THREADS=-1` read as the 256-worker clamp); this
/// parser accepts decimal digits only, so such values are ignored like
/// any other unparsable text.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

namespace rfp::common {

/// Parses \p text as a positive decimal count: one or more digits and
/// nothing else (no sign, no whitespace, no trailing characters), with a
/// value of at least 1. Returns std::nullopt for null, empty, zero or any
/// other text. Values beyond std::uint64_t saturate at its maximum; the
/// caller applies its own clamp.
inline std::optional<std::uint64_t> parsePositiveCount(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(*c - '0');
    value = value > (kMax - digit) / 10 ? kMax : value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

/// parsePositiveCount of environment variable \p name (std::nullopt when
/// it is unset).
inline std::optional<std::uint64_t> envPositiveCount(const char* name) {
  return parsePositiveCount(std::getenv(name));
}

}  // namespace rfp::common
