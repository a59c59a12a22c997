#pragma once

/// \file cache_budget.h
/// Process-wide byte budget for the immutable derived-data caches (the
/// steering-matrix cache in src/radar and the FFT plan cache in
/// src/signal), and the one LRU cache both are built on. A fleet that
/// runs scenarios submitted as text would otherwise grow those caches
/// without bound -- one entry per distinct (angles, antennas, spacing,
/// wavelength) tuple or FFT size for the process lifetime.
///
/// The budget is split evenly between the two caches. Each cache evicts
/// least-recently-used entries when its half exceeds the budget; entries
/// are handed out as shared_ptr, so eviction never invalidates data a
/// frame in flight still holds.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace rfp::common {

/// Total derived-data cache budget [bytes], 64 MiB; each cache takes half.
inline constexpr std::size_t kCacheBudgetBytes = std::size_t{64} << 20;

/// Immutable entries built on first use and shared as shared_ptr, under a
/// byte cap. When an insertion takes the held bytes over the cap, the
/// least recently used other entries are evicted until the bytes fit or
/// only the new entry is left. An evicted entry stays valid for every
/// caller that still holds it.
///
/// Thread-safety: every member may be called concurrently; one mutex
/// guards the table, and an entry is built under it.
template <typename Key, typename Value>
class LruCache {
 public:
  /// The bytes an entry is charged.
  using BytesFn = std::size_t (*)(const Value&);

  LruCache(std::size_t capBytes, BytesFn bytesOf)
      : capBytes_(capBytes), bytesOf_(bytesOf) {}

  /// The entry for \p key; on a miss \p build() makes it.
  template <typename Build>
  std::shared_ptr<const Value> get(const Key& key, Build&& build) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      auto value = std::make_shared<const Value>(build());
      const std::size_t bytes = bytesOf_(*value);
      it = slots_.emplace(key, Slot{std::move(value), bytes, 0}).first;
      bytes_ += bytes;
      while (bytes_ > capBytes_ && slots_.size() > 1) {
        auto victim = slots_.end();
        for (auto jt = slots_.begin(); jt != slots_.end(); ++jt) {
          if (jt != it && (victim == slots_.end() ||
                           jt->second.lastUse < victim->second.lastUse)) {
            victim = jt;
          }
        }
        bytes_ -= victim->second.bytes;
        slots_.erase(victim);
      }
    }
    it->second.lastUse = ++useCounter_;
    return it->second.value;
  }

  /// Entries held.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

 private:
  struct Slot {
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;
    std::uint64_t lastUse = 0;
  };

  const std::size_t capBytes_;
  const BytesFn bytesOf_;
  mutable std::mutex mutex_;
  std::map<Key, Slot> slots_;
  std::uint64_t useCounter_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace rfp::common
