#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <utility>

#include "common/env_count.h"

namespace rfp::common {

namespace {

/// True while this thread runs pool iterations: on every worker, and on a
/// caller while it claims its own loop's indices. A parallelFor made from
/// there runs inline, so a nested loop never waits on a pool its own
/// thread occupies.
thread_local bool tlsInLoop = false;

/// An iteration that threw, and its index.
using Failure = std::pair<std::size_t, std::exception_ptr>;

/// Reports the failures of a loop over \p range indices (at least one;
/// callers test for none inline, which keeps the 1-thread loop as cheap as
/// a bare one): one rethrows its own exception, several throw
/// ParallelForError quoting the first three in index order.
[[noreturn]] void throwFailures(std::vector<Failure>& failures,
                                std::size_t range) {
  if (failures.size() == 1) std::rethrow_exception(failures.front().second);
  std::ranges::sort(failures, {}, &Failure::first);
  std::string message = "parallelFor: " + std::to_string(failures.size()) +
                        " of " + std::to_string(range) + " iterations failed";
  constexpr std::size_t kMaxQuoted = 3;
  for (std::size_t q = 0; q < std::min(failures.size(), kMaxQuoted); ++q) {
    message += "; [" + std::to_string(failures[q].first) + "] ";
    try {
      std::rethrow_exception(failures[q].second);
    } catch (const std::exception& e) {
      message += e.what();
    } catch (...) {
      message += "<non-standard>";
    }
  }
  if (failures.size() > kMaxQuoted) message += "; ...";
  throw ParallelForError(std::move(message), failures.size());
}

}  // namespace

/// The one loop the pool runs at a time. Its caller opens it under `mutex`
/// and workers join it there; the caller closes it once every index is
/// claimed and returns when no worker is inside, so `body` outlives every
/// thread that runs it.
struct ThreadPool::Impl {
  std::mutex busy;   ///< held by the caller whose loop owns the pool
  std::mutex mutex;  ///< guards every field below but `next`
  std::condition_variable wake;  ///< workers: a loop opened, or stop
  std::condition_variable idle;  ///< the caller: the last worker left
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};  ///< the next unclaimed index
  std::size_t end = 0;
  std::uint64_t generation = 0;  ///< bumped per loop; a worker joins each once
  std::size_t inside = 0;        ///< workers inside the loop
  bool open = false;
  bool stopping = false;
  std::vector<Failure> failures;

  /// Claims and runs indices until the range is spent; a failing iteration
  /// is recorded and the next index claimed.
  void claim() noexcept {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= end) return;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        failures.emplace_back(i, std::current_exception());
      }
    }
  }
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
  workers_.reserve(size_ - 1);
  for (std::size_t i = 1; i < size_; ++i) {
    workers_.emplace_back([this] { runWorker(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::runWorker() {
  tlsInLoop = true;
  Impl& impl = *impl_;
  std::uint64_t joined = 0;
  std::unique_lock<std::mutex> lock(impl.mutex);
  for (;;) {
    impl.wake.wait(lock, [&] {
      return impl.stopping || (impl.open && impl.generation != joined);
    });
    if (impl.stopping) return;
    joined = impl.generation;
    ++impl.inside;
    lock.unlock();
    impl.claim();
    lock.lock();
    if (--impl.inside == 0 && !impl.open) impl.idle.notify_one();
  }
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  Impl& impl = *impl_;
  // The flag goes first: a caller inside its own loop already holds `busy`,
  // and try_lock on a mutex the thread owns is undefined.
  if (workers_.empty() || end - begin == 1 || tlsInLoop ||
      !impl.busy.try_lock()) {
    std::vector<Failure> failures;
    std::size_t i = begin;
    while (i < end) {
      try {
        for (; i < end; ++i) body(i);
      } catch (...) {
        failures.emplace_back(i++, std::current_exception());
      }
    }
    if (!failures.empty()) throwFailures(failures, end - begin);
    return;
  }

  std::lock_guard<std::mutex> owner(impl.busy, std::adopt_lock);
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.body = &body;
    impl.next = begin;
    impl.end = end;
    impl.open = true;
    ++impl.generation;
  }
  impl.wake.notify_all();
  tlsInLoop = true;
  impl.claim();
  tlsInLoop = false;
  std::vector<Failure> failures;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.open = false;
    impl.idle.wait(lock, [&] { return impl.inside == 0; });
    failures.swap(impl.failures);
  }
  if (!failures.empty()) throwFailures(failures, end - begin);
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
