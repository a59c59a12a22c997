#pragma once

/// \file thread_pool.h
/// Shared worker pool driving the simulation hot paths (beat-signal
/// synthesis, range FFT + beamforming, multipath image expansion).
///
/// Determinism contract (DESIGN.md Sec. 8). The pool never owns
/// randomness and never influences numeric results: callers hand it
/// index ranges whose iterations write to disjoint outputs, and every
/// random draw inside a parallel region comes from a counter-based
/// stream keyed by the loop index (common/det_hash.h), not from a shared
/// sequential engine. Output is therefore bit-identical at any thread
/// count, including the inline single-thread fallback.
///
/// Sizing. A default-constructed pool takes its worker count from the
/// `RFP_THREADS` environment variable when set (clamped to [1, 256];
/// anything but a positive decimal count -- a sign, zero, trailing text --
/// is ignored, common/env_count.h), else
/// `std::thread::hardware_concurrency`.
/// With one worker no threads are spawned at all and every job runs
/// inline on the calling thread.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rfp::common {

/// Thrown by parallelFor when more than one chunk failed. The single-failure
/// case rethrows the original exception unchanged (type-preserving); with
/// several failures the first alone would silently swallow the rest, so they
/// are aggregated here with an explicit count and the first few reasons.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::string message, std::size_t failureCount)
      : std::runtime_error(std::move(message)), failureCount_(failureCount) {}

  /// Number of chunks that threw (>= 2 by construction).
  std::size_t failureCount() const { return failureCount_; }

 private:
  std::size_t failureCount_;
};

/// Fixed-size shared-queue worker pool.
///
/// Thread-safety: submit() and parallelFor() may be called concurrently
/// from different threads; construction, destruction, and the global-pool
/// management calls (setGlobalThreads) must not race with job submission.
class ThreadPool {
 public:
  /// Creates \p threads workers; 0 means resolveThreadCount(). A pool of
  /// size 1 spawns no threads and runs all work inline.
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains every job still queued, then joins the workers. Pending jobs
  /// submitted before destruction are guaranteed to run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1).
  std::size_t size() const { return size_; }

  /// Enqueues one job. The returned future rethrows any exception the job
  /// raised. With a single-worker pool the job runs inline before return.
  std::future<void> submit(std::function<void()> job);

  /// Runs body(i) for every i in [begin, end), statically chunked across
  /// the workers, and blocks until all iterations finished. Iterations
  /// must write to disjoint state. Exceptions are aggregated after every
  /// chunk has settled: one failing chunk rethrows its original exception
  /// unchanged; several failing chunks throw ParallelForError carrying the
  /// failure count (no failure is dropped silently). Runs inline
  /// (deterministically, in index order) when the
  /// pool has one worker, the range is a single index, or the caller is
  /// itself a pool worker (nested parallelism degrades to serial instead
  /// of deadlocking).
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body);

  /// Worker count a default-constructed pool would use: `RFP_THREADS`
  /// when set and parsable, else hardware_concurrency, floored at 1.
  static std::size_t resolveThreadCount();

  /// Process-wide pool shared by the simulation hot paths. Created on
  /// first use with resolveThreadCount() workers; concurrent first calls
  /// see one pool. After that a call is one atomic load, no lock.
  static ThreadPool& global();

  /// Replaces the global pool with one of \p threads workers (0 =
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
