#pragma once

/// \file cache_budget.h
/// Process-wide byte budget for the immutable derived-data caches (the
/// steering-matrix cache in src/radar and the FFT plan cache in
/// src/signal). A fleet that runs scenarios submitted as text would
/// otherwise grow those caches without bound -- one entry per distinct
/// (angles, antennas, spacing, wavelength) tuple or FFT size for the
/// process lifetime.
///
/// The budget is split evenly between the two caches. Each cache evicts
/// least-recently-used entries when its half exceeds the budget; entries
/// are handed out as shared_ptr, so eviction never invalidates data a
/// frame in flight still holds.

#include <cstddef>

namespace rfp::common {

/// Total derived-data cache budget [bytes], 64 MiB; each cache takes half.
inline constexpr std::size_t kCacheBudgetBytes = std::size_t{64} << 20;

}  // namespace rfp::common
