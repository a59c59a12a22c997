#pragma once

/// \file alloc_counter.h
/// Instrumented global allocator for the zero-allocation tests: counts
/// heap allocations while g_countAllocs is set, so an allocation-free
/// contract is enforced by a test instead of by code review. It replaces
/// the global operator new/delete, so exactly one file of a test binary
/// includes it. Only the unaligned forms are replaced -- std::vector and
/// std::string of the types these paths use never take the aligned
/// overloads.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<std::size_t> g_allocCount{0};
}  // namespace

// noinline: if the compiler inlines these it sees malloc() paired with
// free() across what it thinks are distinct allocators and raises
// -Wmismatched-new-delete; kept opaque, new/delete pair normally.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_countAllocs.load(std::memory_order_relaxed)) {
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
