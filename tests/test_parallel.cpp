/// \file test_parallel.cpp
/// The thread pool and the shared caches (DESIGN.md Sec. 8): pool
/// mechanics (sizing, index claiming, failures, nesting), counter-based
/// receiver noise, and the steering/twiddle cache behavior.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.h"
#include "common/env_count.h"
#include "common/thread_pool.h"
#include "common/vec2.h"
#include "radar/config.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "signal/fft.h"

namespace rfp {
namespace {

using rfp::common::ThreadPool;
using rfp::common::Vec2;

/// RAII guard: every test that touches the global pool puts it back to the
/// environment-resolved default on exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::setGlobalThreads(0); }
};

/// RAII guard: restores environment variable \p name to its value at
/// construction (or unsets it again), so a test run under a CI override
/// such as RFP_THREADS=2 leaves the override in place.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) saved_ = value;
  }
  ~EnvGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Text every positive-count environment knob must ignore: a sign must
/// not wrap to a huge count, and zero, empty or trailing text is not a
/// count.
constexpr const char* kNotACount[] = {"not-a-number", "-1", "0", "",
                                      "+2",           "3x", " 3", "-0"};

TEST(EnvCount, AcceptsOnlyPositiveDecimalCounts) {
  using rfp::common::parsePositiveCount;
  for (const char* bad : kNotACount) {
    EXPECT_FALSE(parsePositiveCount(bad).has_value()) << '"' << bad << '"';
  }
  EXPECT_FALSE(parsePositiveCount(nullptr).has_value());
  EXPECT_EQ(parsePositiveCount("1"), 1u);
  EXPECT_EQ(parsePositiveCount("007"), 7u);
  EXPECT_EQ(parsePositiveCount("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsePositiveCount("18446744073709551616"),
            std::numeric_limits<std::uint64_t>::max());  // saturates
  EXPECT_EQ(parsePositiveCount("99999999999999999999999"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ThreadPool, RfpThreadsEnvOverridesAndFallsBackToOne) {
  const EnvGuard guard("RFP_THREADS");
  ::unsetenv("RFP_THREADS");
  const std::size_t unsetCount = ThreadPool::resolveThreadCount();
  ::setenv("RFP_THREADS", "1", 1);
  {
    ThreadPool pool;  // default-constructed -> resolves from env
    EXPECT_EQ(pool.size(), 1u);
    // The 1-thread fallback runs everything inline on the calling thread.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(4);
    pool.parallelFor(0, seen.size(),
                     [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    for (const auto& id : seen) EXPECT_EQ(id, caller);
  }
  ::setenv("RFP_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::resolveThreadCount(), 3u);
  ::setenv("RFP_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::resolveThreadCount(), 256u);
  // Ignored values resolve exactly as if the variable were unset.
  for (const char* bad : kNotACount) {
    ::setenv("RFP_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::resolveThreadCount(), unsetCount)
        << '"' << bad << '"';
  }
}

/// Spins until \p done holds or ten seconds pass, and says which. Tests
/// that need iterations to overlap wait through this, so a pool that runs
/// them one after another fails instead of hanging.
template <class Done>
bool waitFor(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, CallerAndWorkerRunTwoIterationsAtOnce) {
  // A 2-thread pool is the caller plus one worker. Two iterations that
  // each wait for the other finish only if each thread runs one.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::vector<std::thread::id> ran(2);
  std::vector<char> met(2, 0);
  pool.parallelFor(0, 2, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    met[i] = waitFor([&] { return arrived.load() == 2; });
  });
  EXPECT_TRUE(met[0] && met[1]);
  EXPECT_NE(ran[0], ran[1]);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_TRUE(ran[0] == caller || ran[1] == caller);
}

TEST(ThreadPool, SlowIterationDoesNotHoldBackLaterOnes) {
  // Index 0 waits until every later index has run. Claimed one at a time,
  // they run on the other thread meanwhile; a static chunk would queue
  // indices 1-3 behind index 0 on one thread.
  ThreadPool pool(2);
  constexpr std::size_t kN = 8;
  std::atomic<std::size_t> later{0};
  bool met = false;
  pool.parallelFor(0, kN, [&](std::size_t i) {
    if (i == 0) {
      met = waitFor([&] { return later.load() == kN - 1; });
    } else {
      later.fetch_add(1);
    }
  });
  EXPECT_TRUE(met);
}

TEST(ThreadPool, ParallelForPropagatesWorkerExceptions) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      pool.parallelFor(0, 64,
                       [&](std::size_t i) {
                         visited.fetch_add(1);
                         if (i == 5) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(visited.load(), 64);  // a failure stops no other iteration
  // The pool survives a throwing iteration and stays usable.
  std::atomic<int> after{0};
  pool.parallelFor(0, 8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, FailuresAreTheSameAtEveryPoolSize) {
  // Every iteration runs even after another failed, so the inline
  // 1-thread loop reports what a pooled one does: the failure count and
  // the first three reasons in index order, caught as ParallelForError
  // (a std::runtime_error); one failure rethrows its own exception.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<std::size_t> ran{0};
    try {
      pool.parallelFor(0, 64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 16 == 0) {
          throw std::invalid_argument("index " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "expected ParallelForError at " << threads;
    } catch (const rfp::common::ParallelForError& e) {
      EXPECT_EQ(e.failureCount(), 4u) << threads;
      EXPECT_STREQ(e.what(),
                   "parallelFor: 4 of 64 iterations failed; [0] index 0; "
                   "[16] index 16; [32] index 32; ...")
          << threads;
    }
    EXPECT_EQ(ran.load(), 64u) << threads;

    try {
      pool.parallelFor(0, 64, [&](std::size_t i) {
        if (i == 37) throw std::invalid_argument("solo");
      });
      ADD_FAILURE() << "expected std::invalid_argument at " << threads;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "solo") << threads;
    }
  }
}

TEST(ThreadPool, NestedParallelForFromWorkerRunsInline) {
  // The two outer iterations wait for each other, so one nested loop
  // starts on the worker and one on the caller. Each runs on the thread
  // that made it, on this pool and on another, instead of waiting on a
  // pool its thread occupies.
  ThreadPool pool(2);
  ThreadPool other(4);
  std::atomic<int> arrived{0};
  std::vector<std::thread::id> outer(2);
  std::vector<std::vector<std::thread::id>> inner(
      2, std::vector<std::thread::id>(32));
  std::vector<char> met(2, 0);
  pool.parallelFor(0, 2, [&](std::size_t i) {
    outer[i] = std::this_thread::get_id();
    arrived.fetch_add(1);
    met[i] = waitFor([&] { return arrived.load() == 2; });
    pool.parallelFor(0, 16, [&](std::size_t j) {
      inner[i][j] = std::this_thread::get_id();
    });
    other.parallelFor(16, 32, [&](std::size_t j) {
      inner[i][j] = std::this_thread::get_id();
    });
  });
  EXPECT_TRUE(met[0] && met[1]);
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_TRUE(outer[0] == caller || outer[1] == caller);
  for (std::size_t i = 0; i < 2; ++i) {
    for (const std::thread::id& id : inner[i]) EXPECT_EQ(id, outer[i]);
  }
}

TEST(ThreadPool, CallerFindingThePoolBusyRunsInline) {
  // While one caller's loop holds the pool, a second caller's loop runs
  // on the second caller's thread instead of waiting for the first loop.
  ThreadPool pool(2);
  std::atomic<bool> secondDone{false};
  std::vector<std::thread::id> second(8);
  std::thread::id secondCaller;
  bool met = false;
  pool.parallelFor(0, 2, [&](std::size_t i) {
    if (i != 0) return;
    std::thread t([&] {
      secondCaller = std::this_thread::get_id();
      pool.parallelFor(0, second.size(), [&](std::size_t j) {
        second[j] = std::this_thread::get_id();
      });
      secondDone.store(true);
    });
    met = waitFor([&] { return secondDone.load(); });
    t.join();
  });
  EXPECT_TRUE(met);
  for (const std::thread::id& id : second) EXPECT_EQ(id, secondCaller);
}

TEST(ThreadPool, ConcurrentGlobalCallersSeeOnePool) {
  GlobalPoolGuard guard;
  ThreadPool::setGlobalThreads(3);
  // Callers on several threads at once, each running a loop on the pool
  // it sees: every one sees the pool setGlobalThreads made.
  constexpr std::size_t kCallers = 8;
  std::vector<ThreadPool*> seen(kCallers, nullptr);
  std::vector<std::size_t> sizes(kCallers, 0);
  std::atomic<std::size_t> ran{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 1000; ++i) {
        ThreadPool& pool = ThreadPool::global();
        if (i == 0) seen[c] = &pool;
        if (&pool != seen[c]) seen[c] = nullptr;
      }
      sizes[c] = ThreadPool::global().size();
      ThreadPool::global().parallelFor(
          0, 16, [&](std::size_t) { ran.fetch_add(1); });
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(seen[c], &ThreadPool::global()) << "caller " << c;
    EXPECT_EQ(sizes[c], 3u) << "caller " << c;
  }
  EXPECT_EQ(ran.load(), kCallers * 16);
}

radar::RadarConfig parallelTestConfig() {
  radar::RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-4;
  return cfg;
}

std::vector<env::PointScatterer> testScatterers(const radar::RadarConfig& cfg) {
  std::vector<env::PointScatterer> scatterers;
  for (int i = 0; i < 5; ++i) {
    env::PointScatterer s;
    s.position = cfg.position + Vec2{-2.0 + i * 1.1, 3.0 + 0.4 * i};
    s.amplitude = 0.5 + 0.25 * i;
    s.radialOffsetM = 0.001 * i;
    scatterers.push_back(s);
  }
  return scatterers;
}

void expectFramesBitIdentical(const radar::Frame& a, const radar::Frame& b) {
  ASSERT_EQ(a.numAntennas(), b.numAntennas());
  ASSERT_EQ(a.samplesPerChirp(), b.samplesPerChirp());
  for (std::size_t k = 0; k < a.numAntennas(); ++k) {
    for (std::size_t n = 0; n < a.samples[k].size(); ++n) {
      EXPECT_EQ(a.samples[k][n].real(), b.samples[k][n].real());
      EXPECT_EQ(a.samples[k][n].imag(), b.samples[k][n].imag());
    }
  }
}

TEST(ParallelDeterminism, CounterNoiseIsAFunctionOfSeedChirpAndAntenna) {
  const radar::RadarConfig cfg = parallelTestConfig();
  const radar::Frontend fe(cfg);
  const auto scatterers = testScatterers(cfg);
  const radar::Frame a = fe.synthesize(scatterers, 0.0, 99u, 7u);
  const radar::Frame sameKey = fe.synthesize(scatterers, 0.0, 99u, 7u);
  const radar::Frame otherChirp = fe.synthesize(scatterers, 0.0, 99u, 8u);
  const radar::Frame otherSeed = fe.synthesize(scatterers, 0.0, 100u, 7u);
  expectFramesBitIdentical(a, sameKey);
  EXPECT_NE(a.samples[0][0], otherChirp.samples[0][0]);
  EXPECT_NE(a.samples[0][0], otherSeed.samples[0][0]);
  // Antennas draw from distinct streams: identical geometry, different
  // noise. Compare a pure-noise frame (no scatterers).
  const radar::Frame noiseOnly = fe.synthesize({}, 0.0, 99u, 7u);
  EXPECT_NE(noiseOnly.samples[0][0], noiseOnly.samples[1][0]);
}

TEST(Caches, TwiddleTablesAreSharedPerSizeAndDistinctAcrossSizes) {
  const auto a = signal::fftPlanFor(64);
  const auto b = signal::fftPlanFor(64);
  const auto c = signal::fftPlanFor(128);
  EXPECT_EQ(a.get(), b.get());  // cache hit: one immutable plan per size
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->twiddles.size(), 63u);
  EXPECT_EQ(c->twiddles.size(), 127u);
  EXPECT_THROW(signal::fftPlanFor(48), std::invalid_argument);
  EXPECT_THROW(signal::fftPlanFor(1), std::invalid_argument);

  // The bit-reversal table reverses log2(n) bits.
  ASSERT_EQ(a->bitReverse.size(), 64u);
  EXPECT_EQ(a->bitReverse[0], 0u);
  EXPECT_EQ(a->bitReverse[1], 32u);
  EXPECT_EQ(a->bitReverse[6], 24u);
  EXPECT_EQ(a->bitReverse[63], 63u);

  // The swap list is every pair (i, rev[i]) with i < rev[i], ascending.
  for (const auto& plan : {a, c}) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
    for (std::uint32_t i = 0; i < plan->n; ++i) {
      if (i < plan->bitReverse[i]) want.emplace_back(i, plan->bitReverse[i]);
    }
    EXPECT_EQ(plan->swaps, want) << "n=" << plan->n;
  }
  EXPECT_EQ(a->swaps.size(), 28u);  // 64 - 8 palindromes, halved

  // A cached transform still matches the analytic DFT of an impulse.
  std::vector<signal::Complex> impulse(64, signal::Complex{});
  impulse[1] = 1.0;
  const auto spec = signal::fft(impulse);
  for (std::size_t k = 0; k < spec.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 1.0, 1e-12);
  }
}

TEST(Caches, SteeringCacheKeysOnProcessorGeometry) {
  // The cache is process-wide, so each run (--gtest_repeat) takes angle
  // grids no earlier run used; odd sizes keep broadside on the grid.
  static std::size_t run = 0;
  const std::size_t bins = 61 + 4 * run++;
  const radar::RadarConfig cfg = parallelTestConfig();
  radar::ProcessorOptions narrow;
  narrow.numAngleBins = bins;
  const radar::Processor procA(cfg, narrow);
  const std::size_t after = radar::steeringCacheEntries();
  // Same geometry -> cache hit, no new entry.
  const radar::Processor procB(cfg, narrow);
  EXPECT_EQ(radar::steeringCacheEntries(), after);
  // New angle grid (and new antenna count) -> distinct entries, no stale
  // reuse across configs.
  radar::ProcessorOptions wide;
  wide.numAngleBins = bins + 2;
  const radar::Processor procC(cfg, wide);
  radar::RadarConfig bigger = cfg;
  bigger.numAntennas = 9;
  const radar::Processor procD(bigger, wide);
  EXPECT_GE(radar::steeringCacheEntries(), after + 2);

  // Both grids must localize the same broadside target correctly -- a
  // stale steering matrix would skew one of them.
  const radar::Frontend fe(cfg);
  env::PointScatterer s;
  s.position = cfg.position + Vec2{0.0, 5.0};
  const radar::Frame frame =
      fe.synthesize(std::vector<env::PointScatterer>{s}, 0.0, 1u, 0u);
  for (const radar::Processor* proc : {&procA, &procC}) {
    const auto map = proc->process(frame);
    const auto [ri, ai] = map.argmax();
    EXPECT_NEAR(map.anglesRad[ai], rfp::common::pi() / 2.0, 0.1);
    EXPECT_NEAR(map.rangesM[ri], 5.0, cfg.chirp.rangeResolution());
  }
}

}  // namespace
}  // namespace rfp
