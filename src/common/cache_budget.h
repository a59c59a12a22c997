#pragma once

/// \file cache_budget.h
/// Process-wide byte budget for the immutable derived-data caches (the
/// steering-matrix cache in src/radar and the FFT plan cache in
/// src/signal). A 1000-home fleet with heterogeneous radar configs would
/// otherwise grow those caches without bound -- one entry per distinct
/// (angles, antennas, spacing, wavelength) tuple or FFT size for the
/// process lifetime.
///
/// The budget is resolved once from the `RFP_CACHE_MB` environment
/// variable (whole megabytes, clamped to [1, 65536]; anything but a
/// positive decimal count is ignored, common/env_count.h), defaulting to
/// 64 MB, and is split evenly between the two caches. Each cache evicts
/// least-recently-used entries when its half exceeds the budget; entries
/// are handed out as shared_ptr, so eviction never invalidates data a
/// frame in flight still holds.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/env_count.h"

namespace rfp::common {

namespace detail {

inline std::size_t resolveCacheBudgetBytes() {
  constexpr std::size_t kDefaultMb = 64;
  constexpr std::size_t kMinMb = 1;
  constexpr std::size_t kMaxMb = 65536;
  std::size_t mb = kDefaultMb;
  if (const auto parsed = envPositiveCount("RFP_CACHE_MB")) {
    mb = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(*parsed, kMinMb, kMaxMb));
  }
  return mb * std::size_t{1024} * std::size_t{1024};
}

}  // namespace detail

/// Total derived-data cache budget [bytes]: the RFP_CACHE_MB resolution.
inline std::size_t cacheBudgetBytes() {
  static const std::size_t resolved = detail::resolveCacheBudgetBytes();
  return resolved;
}

}  // namespace rfp::common
