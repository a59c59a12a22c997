#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/env_count.h"

namespace rfp::common {

namespace {

/// True on threads owned by some pool; nested parallelFor calls from a
/// worker run inline instead of re-entering the queue (which could
/// deadlock once every worker waits on work only other workers can run).
thread_local bool tlsInsideWorker = false;

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  bool stopping = false;
};

std::size_t ThreadPool::resolveThreadCount() {
  if (const auto parsed = envPositiveCount("RFP_THREADS")) {
    return static_cast<std::size_t>(std::min<std::uint64_t>(*parsed, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? resolveThreadCount() : threads),
      impl_(std::make_unique<Impl>()) {
  if (size_ < 2) return;  // inline fallback: no threads at all
  workers_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    workers_.emplace_back([this] { runWorker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  for (std::thread& w : workers_) w.join();
  // Inline pools (and the rare job enqueued after stop) drain here.
  while (!impl_->queue.empty()) {
    auto task = std::move(impl_->queue.front());
    impl_->queue.pop_front();
    task();
  }
}

void ThreadPool::runWorker() {
  tlsInsideWorker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->cv.wait(lock, [this] {
        return impl_->stopping || !impl_->queue.empty();
      });
      // Drain-before-join: only exit once the queue is empty, so jobs
      // pending at shutdown still run.
      if (impl_->queue.empty()) return;
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    task();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(job));
  std::future<void> future = task->get_future();
  if (workers_.empty()) {
    (*task)();  // single-worker pool: run inline
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back([task] { (*task)(); });
  }
  impl_->cv.notify_one();
  return future;
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  if (workers_.empty() || range == 1 || tlsInsideWorker) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Each chunk catches into its own slot and counts down a latch this
  // call owns, so no exception crosses a future: the caller learns that a
  // chunk ended, and reads its slot, through the latch's mutex, which
  // ThreadSanitizer sees (a future's wait runs in uninstrumented code).
  const std::size_t chunks = std::min(size_, range);
  std::vector<std::exception_ptr> slots(chunks);
  std::mutex latchMutex;
  std::condition_variable latchDone;
  std::size_t pending = chunks;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + range * c / chunks;
      const std::size_t hi = begin + range * (c + 1) / chunks;
      impl_->queue.push_back([&, lo, hi, c] {
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          slots[c] = std::current_exception();
        }
        // Notify under the lock: the caller may return, destroying the
        // latch, as soon as it sees pending reach zero.
        std::lock_guard<std::mutex> latchLock(latchMutex);
        if (--pending == 0) latchDone.notify_one();
      });
    }
  }
  impl_->cv.notify_all();

  // Wait for every chunk before rethrowing, so `body`'s captures stay
  // alive for stragglers even when an early chunk failed. Every failure is
  // collected: rethrowing only the first would silently drop the rest.
  {
    std::unique_lock<std::mutex> lock(latchMutex);
    latchDone.wait(lock, [&] { return pending == 0; });
  }
  std::vector<std::exception_ptr> failures;
  for (std::exception_ptr& slot : slots) {
    if (slot) failures.push_back(std::move(slot));
  }
  if (failures.empty()) return;
  if (failures.size() == 1) std::rethrow_exception(failures.front());

  std::string message = "parallelFor: " + std::to_string(failures.size()) +
                        " of " + std::to_string(chunks) + " chunks failed";
  constexpr std::size_t kMaxQuoted = 3;
  for (std::size_t i = 0; i < std::min(failures.size(), kMaxQuoted); ++i) {
    try {
      std::rethrow_exception(failures[i]);
    } catch (const std::exception& e) {
      message += std::string("; [") + std::to_string(i) + "] " + e.what();
    } catch (...) {
      message += std::string("; [") + std::to_string(i) + "] <non-standard>";
    }
  }
  if (failures.size() > kMaxQuoted) message += "; ...";
  throw ParallelForError(std::move(message), failures.size());
}

namespace {

std::unique_ptr<ThreadPool>& globalSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

/// The global pool's mutex, held to create or replace it.
constinit std::mutex globalMutex;

/// The pool globalSlot() owns, published after it is built: readers take
/// one acquire load and no lock.
constinit std::atomic<ThreadPool*> globalPool{nullptr};

}  // namespace

ThreadPool& ThreadPool::global() {
  if (ThreadPool* pool = globalPool.load(std::memory_order_acquire)) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(globalMutex);
  auto& slot = globalSlot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>();
    globalPool.store(slot.get(), std::memory_order_release);
  }
  return *slot;
}

void ThreadPool::setGlobalThreads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(globalMutex);
  auto& slot = globalSlot();
  globalPool.store(nullptr, std::memory_order_release);
  slot.reset();  // join the old pool before spawning the new one
  slot = std::make_unique<ThreadPool>(threads);
  globalPool.store(slot.get(), std::memory_order_release);
}

}  // namespace rfp::common
