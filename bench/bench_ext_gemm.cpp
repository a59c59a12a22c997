/// \file bench_ext_gemm.cpp
/// GEMM kernel and training-throughput benchmark (DESIGN.md Sec. 9, 13):
///
///  1. Raw GFLOP/s of the tiled destination-passing kernel at every ISA
///     level this host supports (sse2 / avx2_fma / avx512, swept via
///     setActiveKernelLevel) vs the seed-faithful naive reference, across
///     representative shapes (cubes, the GAN's tall-skinny products, a
///     tile-edge case). Each level's output is memcmp-checked against its
///     scalar reference (referenceGemmForLevel) at 1/2/4 pool threads --
///     the determinism contract is bit-identity within a level, not just
///     "close".
///  2. End-to-end conditional-GAN training steps/sec with every matrix
///     product routed through the naive kernel vs the tiled kernel
///     (GemmKernel switch), verifying that per-batch losses and the final
///     serialized network weights are bit-identical between kernels. This
///     comparison is an sse2-level claim (the naive kernel has no FMA
///     variant), so the level is pinned to sse2 for parts 2 and 3.
///  3. The tiled kernel at 1/2/4 pool threads: steps/sec plus bit-identity
///     of the final weights against the single-thread run (parallel GEMM
///     splits only M, so the per-element accumulation order never changes).
///
/// Emits `BENCH_gemm.json` with the active kernel level and detected CPU
/// feature flags (methodology in EXPERIMENTS.md). `--smoke` is the CI
/// variant: tiny shapes/step counts and a non-zero exit if any
/// bit-identity check fails.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "nn/serialize.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;
using linalg::Matrix;

Matrix randomMatrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

bool bitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.data().empty() ||
          std::memcmp(a.data().data(), b.data().data(),
                      a.data().size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Part 1: raw kernel GFLOP/s, swept over the dispatched ISA levels
// ---------------------------------------------------------------------------

struct ShapeResult {
  std::size_t m, k, n;
  double gflopsTiled = 0.0;
  double gflopsNaive = 0.0;
  bool bitExact = false;  ///< memcmp vs the level's scalar reference, 1/2/4 threads
};

template <typename Kernel>
double timeGemm(Kernel&& kernel, Matrix& c, const Matrix& a, const Matrix& b,
                std::size_t reps) {
  kernel(c, a, b);  // warm-up (sizes buffers)
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    kernel(c, a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  return timer.elapsedS();
}

/// Times linalg::gemm at the *currently active* kernel level and checks the
/// level's bit-identity contract: memcmp equality against
/// referenceGemmForLevel(level) at 1, 2, and 4 pool threads. GFLOP/s is
/// measured single-thread.
ShapeResult benchShape(common::simd::KernelLevel level, std::size_t m,
                       std::size_t k, std::size_t n, bool smoke) {
  common::Rng rng(99);
  const Matrix a = randomMatrix(m, k, rng);
  const Matrix b = randomMatrix(k, n, rng);
  const double flopsPerCall = 2.0 * static_cast<double>(m) *
                              static_cast<double>(k) * static_cast<double>(n);
  const double targetFlops = smoke ? 2.0e7 : 4.0e8;
  const auto reps = static_cast<std::size_t>(
      std::max(1.0, targetFlops / flopsPerCall));

  ShapeResult res;
  res.m = m;
  res.k = k;
  res.n = n;

  common::ThreadPool::setGlobalThreads(1);  // single-thread kernel numbers
  Matrix cTiled, cNaive;
  const double tTiled = timeGemm(
      [](Matrix& c, const Matrix& x, const Matrix& y) {
        linalg::gemm(c, x, y);
      },
      cTiled, a, b, reps);
  const double tNaive = timeGemm(
      [](Matrix& c, const Matrix& x, const Matrix& y) {
        linalg::referenceGemm(c, x, y);
      },
      cNaive, a, b, reps);
  res.gflopsTiled = flopsPerCall * static_cast<double>(reps) / tTiled / 1.0e9;
  res.gflopsNaive = flopsPerCall * static_cast<double>(reps) / tNaive / 1.0e9;

  Matrix ref;
  linalg::referenceGemmForLevel(level, ref, a, b);
  res.bitExact = true;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    common::ThreadPool::setGlobalThreads(threads);
    Matrix c;
    linalg::gemm(c, a, b);
    res.bitExact = res.bitExact && bitIdentical(c, ref);
  }
  common::ThreadPool::setGlobalThreads(0);
  return res;
}

// ---------------------------------------------------------------------------
// Parts 2 and 3: end-to-end GAN training throughput
// ---------------------------------------------------------------------------

struct GanRunResult {
  std::vector<double> dLosses;
  std::vector<double> gLosses;
  std::string weights;  ///< serialized final parameters (exact text)
  double stepsPerSec = 0.0;
  std::size_t steps = 0;
};

GanRunResult runGanTraining(const std::vector<trajectory::Trace>& dataset,
                            linalg::GemmKernel kernel, std::size_t threads,
                            std::size_t numSteps) {
  linalg::setGemmKernel(kernel);
  common::ThreadPool::setGlobalThreads(threads);

  common::Rng rng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = 100000;  // step count below is the actual budget
  gan::TrajectoryGan gan(bench::benchGeneratorConfig(),
                         bench::benchDiscriminatorConfig(), tc, rng);
  gan::TrainingSession session(gan, dataset, rng);

  GanRunResult res;
  bench::WallTimer timer;
  while (res.steps < numSteps) {
    const auto ev = session.advance();
    if (ev.type == gan::TrainingSession::Event::Type::kDone) break;
    if (ev.type != gan::TrainingSession::Event::Type::kBatch) continue;
    res.dLosses.push_back(ev.batch.discriminatorLoss);
    res.gLosses.push_back(ev.batch.generatorLoss);
    ++res.steps;
  }
  res.stepsPerSec = static_cast<double>(res.steps) / timer.elapsedS();

  // Debug aid: RFP_BENCH_PRINT_LOSSES=1 dumps per-batch losses at full
  // precision, for diffing against an independent (e.g. pre-rewrite) run.
  if (std::getenv("RFP_BENCH_PRINT_LOSSES") != nullptr) {
    for (std::size_t i = 0; i < res.dLosses.size(); ++i) {
      std::printf("%.17g %.17g\n", res.dLosses[i], res.gLosses[i]);
    }
  }

  std::ostringstream os;
  nn::serializeParameters(os, gan.networkParameters());
  res.weights = os.str();

  linalg::setGemmKernel(linalg::GemmKernel::kTiled);
  common::ThreadPool::setGlobalThreads(0);
  return res;
}

bool lossesIdentical(const GanRunResult& a, const GanRunResult& b) {
  return a.dLosses.size() == b.dLosses.size() &&
         a.gLosses.size() == b.gLosses.size() &&
         std::memcmp(a.dLosses.data(), b.dLosses.data(),
                     a.dLosses.size() * sizeof(double)) == 0 &&
         std::memcmp(a.gLosses.data(), b.gLosses.data(),
                     a.gLosses.size() * sizeof(double)) == 0;
}

/// Per-ISA-level slice of the part-1 sweep.
struct LevelResult {
  common::simd::KernelLevel level;
  std::size_t mr = 0, nr = 0;  ///< micro-tile extents at this level
  std::vector<ShapeResult> shapes;
  /// Geometric mean of tiled GFLOP/s across shapes; what the avx2-vs-sse2
  /// speedup acceptance bound is computed from.
  double meanGflops = 0.0;
};

int runGemmBench(bool smoke) {
  bench::printHeader(
      "GEMM -- per-ISA-level kernel GFLOP/s and GAN training steps/sec vs "
      "the seed kernel");

  bool allExact = true;

  // Part 1: raw kernel throughput per dispatched ISA level. Shapes: cubes,
  // the GAN's tall-skinny LSTM/FC products (M = batch*T), and a
  // deliberately tile-unaligned edge case.
  const std::vector<std::array<std::size_t, 3>> shapes =
      smoke ? std::vector<std::array<std::size_t, 3>>{{64, 64, 64},
                                                      {33, 17, 29}}
            : std::vector<std::array<std::size_t, 3>>{{64, 64, 64},
                                                      {256, 256, 256},
                                                      {784, 40, 128},
                                                      {33, 17, 29}};
  const common::simd::KernelLevel prevLevel =
      common::simd::activeKernelLevel();
  std::vector<LevelResult> levelResults;
  for (const linalg::GemmLevelInfo& info : linalg::availableGemmLevels()) {
    common::simd::setActiveKernelLevel(info.level);
    LevelResult lr;
    lr.level = info.level;
    lr.mr = info.mr;
    lr.nr = info.nr;
    double logSum = 0.0;
    for (const auto& s : shapes) {
      const ShapeResult r = benchShape(info.level, s[0], s[1], s[2], smoke);
      lr.shapes.push_back(r);
      logSum += std::log(r.gflopsTiled);
      allExact = allExact && r.bitExact;
      std::printf(
          "  gemm[%-8s] %4zux%4zux%4zu : tiled %7.2f GFLOP/s  naive %7.2f "
          "GFLOP/s  (%4.1fx)  %s\n",
          common::simd::kernelLevelName(info.level), r.m, r.k, r.n,
          r.gflopsTiled, r.gflopsNaive, r.gflopsTiled / r.gflopsNaive,
          r.bitExact ? "bit-exact" : "MISMATCH");
    }
    lr.meanGflops = std::exp(logSum / static_cast<double>(lr.shapes.size()));
    levelResults.push_back(std::move(lr));
  }
  common::simd::setActiveKernelLevel(prevLevel);

  // Acceptance bound (ISSUE 9): on an AVX2+FMA host the avx2_fma level
  // must deliver >= 2x the sse2 level's GFLOP/s (geomean across shapes).
  double fmaSpeedup = 0.0;
  for (const LevelResult& lr : levelResults) {
    if (lr.level == common::simd::KernelLevel::kAvx2Fma) {
      fmaSpeedup = lr.meanGflops / levelResults.front().meanGflops;
      std::printf("  avx2_fma vs sse2 geomean speedup: %.2fx%s\n", fmaSpeedup,
                  fmaSpeedup >= 2.0 ? "" : "  (below the 2x target)");
    }
  }

  // Parts 2 and 3 compare against the naive seed kernel, which exists only
  // in the sse2 numeric regime -- pin the level so the bit-identity checks
  // are meaningful regardless of the host's auto-dispatched level.
  common::simd::setActiveKernelLevel(common::simd::KernelLevel::kSse2);

  // Part 2: end-to-end GAN training, naive vs tiled kernels, 1 thread.
  trajectory::HumanWalkModel walker;
  common::Rng dataRng(42);
  const auto dataset = walker.dataset(smoke ? 32 : 128, dataRng);
  const std::size_t ganSteps = smoke ? 4 : 24;

  const GanRunResult naive = runGanTraining(
      dataset, linalg::GemmKernel::kNaive, /*threads=*/1, ganSteps);
  const GanRunResult tiled = runGanTraining(
      dataset, linalg::GemmKernel::kTiled, /*threads=*/1, ganSteps);
  const bool ganLossesExact = lossesIdentical(naive, tiled);
  const bool ganWeightsExact = naive.weights == tiled.weights;
  allExact = allExact && ganLossesExact && ganWeightsExact;
  const double ganSpeedup = tiled.stepsPerSec / naive.stepsPerSec;
  std::printf(
      "  GAN training (1 thread): naive %6.2f steps/s  tiled %6.2f steps/s  "
      "(%4.2fx)  losses %s  weights %s\n",
      naive.stepsPerSec, tiled.stepsPerSec, ganSpeedup,
      ganLossesExact ? "bit-identical" : "MISMATCH",
      ganWeightsExact ? "bit-identical" : "MISMATCH");

  // Part 3: tiled kernel across pool thread counts; the determinism
  // contract requires the trained weights to match the 1-thread run.
  struct ThreadRow {
    std::size_t threads;
    double stepsPerSec;
    bool bitExact;
  };
  std::vector<ThreadRow> threadRows;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const GanRunResult run = runGanTraining(
        dataset, linalg::GemmKernel::kTiled, threads, ganSteps);
    const bool exact = run.weights == tiled.weights &&
                       lossesIdentical(run, tiled);
    threadRows.push_back({threads, run.stepsPerSec, exact});
    allExact = allExact && exact;
    std::printf("  GAN training tiled, %zu threads: %6.2f steps/s  %s\n",
                threads, run.stepsPerSec,
                exact ? "bit-identical" : "MISMATCH");
  }

  common::simd::setActiveKernelLevel(prevLevel);

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "gemm")
      .field("smoke", smoke);
  bench::stampRunProvenance(json).beginArray("levels");
  for (const LevelResult& lr : levelResults) {
    json.beginObject()
        .field("level", common::simd::kernelLevelName(lr.level))
        .field("micro_tile_mr", lr.mr)
        .field("micro_tile_nr", lr.nr)
        .field("geomean_gflops", lr.meanGflops)
        .beginArray("shapes");
    for (const ShapeResult& r : lr.shapes) {
      json.beginObject()
          .field("m", r.m)
          .field("k", r.k)
          .field("n", r.n)
          .field("gflops_tiled", r.gflopsTiled)
          .field("gflops_naive", r.gflopsNaive)
          .field("speedup", r.gflopsTiled / r.gflopsNaive)
          .field("bit_exact_threads_1_2_4", r.bitExact)
          .endObject();
    }
    json.endArray().endObject();
  }
  json.endArray();
  if (fmaSpeedup > 0.0) {
    json.field("avx2_fma_vs_sse2_geomean_speedup", fmaSpeedup);
  } else {
    json.nullField("avx2_fma_vs_sse2_geomean_speedup");
  }
  json.beginObject("gan_training")
      .field("kernel_level", "sse2")
      .field("steps", tiled.steps)
      .field("batch_size", 16)
      .field("naive_steps_per_sec", naive.stepsPerSec)
      .field("tiled_steps_per_sec", tiled.stepsPerSec)
      .field("speedup", ganSpeedup)
      .field("losses_bit_identical", ganLossesExact)
      .field("weights_bit_identical", ganWeightsExact)
      .endObject()
      .beginArray("threads");
  for (const ThreadRow& r : threadRows) {
    json.beginObject()
        .field("threads", r.threads)
        .field("steps_per_sec", r.stepsPerSec)
        .field("bit_identical_to_1_thread", r.bitExact)
        .endObject();
  }
  json.endArray().field("all_bit_exact", allExact).endObject();
  if (json.writeFile("BENCH_gemm.json")) {
    std::printf("  wrote BENCH_gemm.json\n");
  }

  if (!allExact) {
    std::fprintf(stderr,
                 "FAIL: tiled/naive or cross-thread outputs diverged\n");
    return 1;
  }
  return 0;
}

void BM_GemmTiled(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  const Matrix a = randomMatrix(dim, dim, rng);
  const Matrix b = randomMatrix(dim, dim, rng);
  Matrix c;
  for (auto _ : state) {
    linalg::gemm(c, a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(dim) * static_cast<double>(dim) *
          static_cast<double>(dim) * static_cast<double>(state.iterations()) /
          1.0e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTiled)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int status = runGemmBench(smoke);
  if (smoke || status != 0) return status;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
