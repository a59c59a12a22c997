#pragma once

/// \file thread_pool.h
/// Fork-join pool for the loops that scale: the fleet's per-home epochs,
/// recovery re-execution and GEMM row panels. A radar frame runs on its
/// caller.
///
/// Determinism contract (DESIGN.md Sec. 8). The pool never owns
/// randomness and never influences numeric results: callers hand it
/// index ranges whose iterations write to disjoint outputs, and every
/// random draw inside a parallel region comes from state the index owns
/// (a home's own engine) or from a counter-based stream
/// (common/det_hash.h). Output is therefore bit-identical at any thread
/// count.
///
/// Sizing. A pool of n threads counts the caller of parallelFor, which
/// works alongside n - 1 workers. A default-constructed pool takes n from
/// the `RFP_THREADS` environment variable when set (clamped to [1, 256];
/// anything but a positive decimal count is ignored, common/env_count.h),
/// else `std::thread::hardware_concurrency`. At n = 1 no thread is
/// spawned and every loop runs inline.

#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rfp::common {

/// Thrown by parallelFor when more than one iteration failed (one failure
/// rethrows its own exception): the count and the first few reasons in
/// index order, so no failure is dropped silently.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::string message, std::size_t failureCount)
      : std::runtime_error(std::move(message)), failureCount_(failureCount) {}

  /// Number of iterations that threw (>= 2 by construction).
  std::size_t failureCount() const { return failureCount_; }

 private:
  std::size_t failureCount_;
};

/// Fork-join pool that runs one loop at a time. parallelFor() may be
/// called from several threads at once (a call that finds the pool busy
/// runs inline); construction, destruction and setGlobalThreads must not
/// race with a loop.
class ThreadPool {
 public:
  /// A pool of \p threads threads, the caller included; 0 means
  /// resolveThreadCount(). A pool of size 1 spawns no threads.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads a loop runs on, the caller included (>= 1).
  std::size_t size() const { return size_; }

  /// Runs body(i) for every i in [begin, end) and returns when all have
  /// finished. Iterations must write to disjoint state. The caller and the
  /// workers claim indices one at a time, so none queues behind a slow one.
  /// Every iteration runs even after another failed, and the failures are
  /// reported the same at every pool size (see ParallelForError). Runs
  /// inline, in index order, when the pool has one thread, the range is one
  /// index, the calling thread is already running pool iterations (nested
  /// loops degrade to serial instead of deadlocking), or another caller's
  /// loop holds the pool.
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body);

  /// Thread count a default-constructed pool would use: `RFP_THREADS`
  /// when set and parsable, else hardware_concurrency, floored at 1.
  static std::size_t resolveThreadCount();

  /// Process-wide pool shared by the simulation hot paths. Created on
  /// first use with resolveThreadCount() threads; concurrent first calls
  /// see one pool. After that a call is one atomic load, no lock.
  static ThreadPool& global();

  /// Replaces the global pool with one of \p threads threads (0 =
  /// re-resolve from the environment). Joins the old pool first; must not
  /// be called while other threads use the global pool. Intended for
  /// benches and tests that sweep thread counts.
  static void setGlobalThreads(std::size_t threads);

 private:
  struct Impl;
  void runWorker();

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rfp::common
