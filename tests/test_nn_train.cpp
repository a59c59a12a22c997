#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "temp_path.h"

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gan/trajectory_gan.h"
#include "linalg/gemm.h"
#include "nn/adam.h"
#include "nn/finite.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "trajectory/trace.h"

namespace rfp::nn {
namespace {

TEST(Adam, MinimizesQuadraticBowl) {
  Parameter p("w", Matrix{{5.0, -3.0}});
  Adam adam({&p}, {.learningRate = 0.1});
  for (int i = 0; i < 500; ++i) {
    p.zeroGrad();
    p.grad(0, 0) = 2.0 * p.value(0, 0);
    p.grad(0, 1) = 2.0 * p.value(0, 1);
    adam.step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0, 1e-3);
  EXPECT_NEAR(p.value(0, 1), 0.0, 1e-3);
  EXPECT_EQ(adam.iterations(), 500);
}

TEST(Adam, RejectsBadLearningRate) {
  Parameter p("w", Matrix(1, 1));
  EXPECT_THROW(Adam({&p}, {.learningRate = 0.0}), std::invalid_argument);
}

TEST(Adam, LinearRegressionConverges) {
  rfp::common::Rng rng(21);
  // y = x * Wtrue + btrue with noise; a Linear layer must recover it.
  const Matrix wTrue{{2.0}, {-1.0}};
  Linear layer("fc", 2, 1, rng);
  Adam adam(layer.parameters(), {.learningRate = 0.05});

  for (int epoch = 0; epoch < 400; ++epoch) {
    Matrix x(16, 2);
    fillGaussian(x, rng);
    const Matrix target = x * wTrue;
    const Matrix pred = layer.forward(x);
    const auto loss = meanSquaredError(pred, target);
    layer.backward(loss.dLogits);
    adam.stepAndZero();
  }
  EXPECT_NEAR(layer.parameters()[0]->value(0, 0), 2.0, 0.05);
  EXPECT_NEAR(layer.parameters()[0]->value(1, 0), -1.0, 0.05);
  EXPECT_NEAR(layer.parameters()[1]->value(0, 0), 0.0, 0.05);
}

TEST(GradientClip, ScalesDownLargeGradients) {
  Parameter p("w", Matrix{{0.0, 0.0}});
  p.grad = Matrix{{3.0, 4.0}};  // norm 5
  const double preNorm = clipGradientNorm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(preNorm, 5.0);
  EXPECT_NEAR(p.grad(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(p.grad(0, 1), 0.8, 1e-12);
}

TEST(GradientClip, LeavesSmallGradientsAlone) {
  Parameter p("w", Matrix{{0.0}});
  p.grad = Matrix{{0.5}};
  clipGradientNorm({&p}, 1.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.5);
  EXPECT_THROW(clipGradientNorm({&p}, 0.0), std::invalid_argument);
}

TEST(ParameterList, CountAndZero) {
  Parameter a("a", Matrix(2, 3));
  Parameter b("b", Matrix(1, 4));
  ParameterList list = {&a, &b};
  EXPECT_EQ(parameterCount(list), 10u);
  a.grad(0, 0) = 5.0;
  zeroGradients(list);
  EXPECT_DOUBLE_EQ(a.grad(0, 0), 0.0);
}

TEST(Serialize, RoundTripPreservesValues) {
  rfp::common::Rng rng(22);
  Linear original("fc", 3, 2, rng);
  const std::string path = rfp::test::tempPath("params_roundtrip.txt");
  saveParameters(path, original.parameters());

  rfp::common::Rng rng2(99);  // different init
  Linear restored("fc", 3, 2, rng2);
  EXPECT_GT(original.parameters()[0]->value.maxAbsDiff(
                restored.parameters()[0]->value),
            1e-6);
  loadParameters(path, restored.parameters());
  EXPECT_LT(original.parameters()[0]->value.maxAbsDiff(
                restored.parameters()[0]->value),
            1e-15);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  rfp::common::Rng rng(23);
  Linear a("fc", 3, 2, rng);
  const std::string path = rfp::test::tempPath("params_mismatch.txt");
  saveParameters(path, a.parameters());

  Linear wrongShape("fc", 2, 2, rng);
  EXPECT_THROW(loadParameters(path, wrongShape.parameters()),
               std::runtime_error);
  Linear wrongName("other", 3, 2, rng);
  EXPECT_THROW(loadParameters(path, wrongName.parameters()),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  rfp::common::Rng rng(24);
  Linear a("fc", 2, 2, rng);
  EXPECT_THROW(loadParameters("/nonexistent/dir/params.txt", a.parameters()),
               std::runtime_error);
  EXPECT_THROW(saveParameters("/nonexistent/dir/params.txt", a.parameters()),
               std::runtime_error);
}

TEST(Ops, XavierInitKeepsScale) {
  rfp::common::Rng rng(25);
  Matrix w(64, 64);
  xavierInit(w, 64, 64, rng);
  const double limit = std::sqrt(6.0 / 128.0);
  for (double v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

// ---------------------------------------------------------------------------
// Finite-value guards and clipping under extreme inputs (training
// supervision relies on these never lying)
// ---------------------------------------------------------------------------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Three odd-shaped tensors, gradients filled from \p rng.
std::vector<Parameter> makeParams(rfp::common::Rng& rng, double scale = 1.0) {
  std::vector<Parameter> owned;
  owned.emplace_back("a", Matrix(3, 4));
  owned.emplace_back("b", Matrix(1, 7));
  owned.emplace_back("c", Matrix(5, 2));
  for (Parameter& p : owned) {
    fillGaussian(p.grad, rng);
    p.grad *= scale;
  }
  return owned;
}

ParameterList listOf(std::vector<Parameter>& owned) {
  ParameterList params;
  for (Parameter& p : owned) params.push_back(&p);
  return params;
}

TEST(GradientClip, PropertyPreservesDirectionAndFiniteness) {
  rfp::common::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    auto owned = makeParams(rng, std::pow(10.0, rng.uniform(-3.0, 3.0)));
    auto params = listOf(owned);
    std::vector<double> before;
    for (const Parameter* p : params) {
      for (double g : p->grad.data()) before.push_back(g);
    }
    const double maxNorm = 1.0;
    double sq = 0.0;
    for (double g : before) sq += g * g;
    const double maxNormExpected = std::sqrt(sq);
    const double preNorm = clipGradientNorm(params, maxNorm);
    EXPECT_NEAR(preNorm, maxNormExpected, 1e-9 * maxNormExpected + 1e-300);
    // Post-clip: finite, norm <= maxNorm, and direction preserved (every
    // entry scaled by the same non-negative factor).
    EXPECT_LE(gradientNorm(params), maxNorm * (1.0 + 1e-12));
    const double factor = preNorm > maxNorm ? maxNorm / preNorm : 1.0;
    std::size_t i = 0;
    for (const Parameter* p : params) {
      for (double g : p->grad.data()) {
        EXPECT_TRUE(std::isfinite(g));
        EXPECT_NEAR(g, before[i] * factor, 1e-12 * std::fabs(before[i]) + 1e-300);
        ++i;
      }
    }
  }
}

TEST(GradientClip, OverflowingGradientsClipToFiniteNorm) {
  // Entries near 1e200 overflow a naive sum-of-squares; the scaled-norm
  // clip must still produce a finite, correctly scaled result.
  rfp::common::Rng rng(32);
  auto owned = makeParams(rng, 1e200);
  auto params = listOf(owned);
  const double preNorm = clipGradientNorm(params, 5.0);
  EXPECT_TRUE(std::isfinite(preNorm));
  EXPECT_GT(preNorm, 1e199);
  EXPECT_LE(gradientNorm(params), 5.0 * (1.0 + 1e-12));
  for (const Parameter* p : params) {
    for (double g : p->grad.data()) EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(GradientClip, InfGradientsAreZeroedNotPropagated) {
  rfp::common::Rng rng(33);
  auto owned = makeParams(rng);
  auto params = listOf(owned);
  params[1]->grad(0, 3) = kInf;
  const double preNorm = clipGradientNorm(params, 5.0);
  EXPECT_TRUE(std::isinf(preNorm));
  for (const Parameter* p : params) {
    for (double g : p->grad.data()) EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

TEST(GradientClip, NanGradientsLeftForFiniteCheck) {
  rfp::common::Rng rng(34);
  auto owned = makeParams(rng);
  auto params = listOf(owned);
  params[2]->grad(4, 1) = kNan;
  const double preNorm = clipGradientNorm(params, 5.0);
  EXPECT_TRUE(std::isnan(preNorm));
  // Gradients untouched: the finite check (not the clip) owns diagnosis.
  EXPECT_TRUE(std::isnan(params[2]->grad(4, 1)));
}

TEST(Finite, PropertyFindsInjectionAtEveryIndex) {
  rfp::common::Rng rng(35);
  auto owned = makeParams(rng);
  auto params = listOf(owned);
  EXPECT_FALSE(findNonFiniteGradient(params).has_value());
  EXPECT_FALSE(findNonFiniteValue(params).has_value());
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    for (std::size_t ei = 0; ei < params[pi]->size(); ++ei) {
      // Gradient injection (NaN)
      const double savedG = params[pi]->grad.data()[ei];
      params[pi]->grad.data()[ei] = kNan;
      auto bad = findNonFiniteGradient(params);
      ASSERT_TRUE(bad.has_value());
      EXPECT_EQ(bad->parameterIndex, pi);
      EXPECT_EQ(bad->entryIndex, ei);
      EXPECT_TRUE(bad->inGradient);
      EXPECT_NE(bad->describe().find(params[pi]->name), std::string::npos);
      params[pi]->grad.data()[ei] = savedG;
      // Value injection (Inf)
      const double savedV = params[pi]->value.data()[ei];
      params[pi]->value.data()[ei] = -kInf;
      bad = findNonFiniteValue(params);
      ASSERT_TRUE(bad.has_value());
      EXPECT_EQ(bad->parameterIndex, pi);
      EXPECT_EQ(bad->entryIndex, ei);
      EXPECT_FALSE(bad->inGradient);
      params[pi]->value.data()[ei] = savedV;
    }
  }
}

TEST(Finite, GradientNormMatchesNaiveSum) {
  rfp::common::Rng rng(36);
  for (int trial = 0; trial < 20; ++trial) {
    auto owned = makeParams(rng, std::pow(10.0, rng.uniform(-2.0, 2.0)));
    auto params = listOf(owned);
    double sq = 0.0;
    for (const Parameter* p : params) {
      for (double g : p->grad.data()) sq += g * g;
    }
    EXPECT_NEAR(gradientNorm(params), std::sqrt(sq),
                1e-12 * std::sqrt(sq) + 1e-300);
  }
}

TEST(Ops, SoftmaxRowsSurvivesExtremeLogits) {
  Matrix x{{1e308, -1e308, 0.0}, {-kInf, -kInf, -kInf}, {700.0, 710.0, 690.0}};
  const Matrix y = softmaxRows(x);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < y.cols(); ++c) {
      EXPECT_TRUE(std::isfinite(y(r, c)));
      EXPECT_GE(y(r, c), 0.0);
      sum += y(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_NEAR(y(0, 0), 1.0, 1e-12);
  // All -inf row falls back to uniform rather than 0/0 = NaN.
  EXPECT_NEAR(y(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(Ops, SafeLogClampsInsteadOfDiverging) {
  Matrix x{{0.0, 1e-300, 1.0}};
  const Matrix y = safeLog(x);
  EXPECT_NEAR(y(0, 0), std::log(1e-12), 1e-9);
  EXPECT_NEAR(y(0, 1), std::log(1e-12), 1e-9);
  EXPECT_NEAR(y(0, 2), 0.0, 1e-15);
  EXPECT_THROW(safeLog(x, 0.0), std::invalid_argument);
}

TEST(Loss, BceWithLogitsFiniteAtSaturation) {
  Matrix logits{{1e308}, {-1e308}};
  Matrix targets{{0.0}, {1.0}};
  const LossResult r = bceWithLogits(logits, targets);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_GT(r.loss, 0.0);
  for (double g : r.dLogits.data()) EXPECT_TRUE(std::isfinite(g));
}

TEST(Loss, BceOnProbabilitiesGuardsExactZeroAndOne) {
  Matrix probs{{0.0}, {1.0}};
  Matrix targets{{1.0}, {0.0}};  // worst case: -log(0) without the guard
  const LossResult r = bceOnProbabilities(probs, targets);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_GT(r.loss, 10.0);  // large (confidently wrong) but finite
  for (double g : r.dLogits.data()) EXPECT_TRUE(std::isfinite(g));
  EXPECT_THROW(bceOnProbabilities(probs, targets, 0.7), std::invalid_argument);
  EXPECT_THROW(bceOnProbabilities(probs, Matrix(1, 1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Training hot path: zero steady-state allocations and bit-identity across
// GEMM kernels and thread counts (the gemm.h / DESIGN.md Sec. 9 contract).
// ---------------------------------------------------------------------------

gan::GeneratorConfig tinyGeneratorConfig() {
  gan::GeneratorConfig g;
  g.hiddenSize = 12;
  g.noiseDim = 6;
  g.perStepNoiseDim = 4;
  g.labelEmbeddingDim = 4;
  g.traceLength = 9;  // 10-point traces keep the test fast
  return g;
}

gan::DiscriminatorConfig tinyDiscriminatorConfig() {
  gan::DiscriminatorConfig d;
  d.hiddenSize = 12;
  d.featureSize = 8;
  d.labelEmbeddingDim = 4;
  d.traceLength = 9;
  return d;
}

/// Random-walk traces with traceLength + 1 points and honest range labels.
std::vector<trajectory::Trace> syntheticDataset(std::size_t count,
                                                std::size_t points,
                                                rfp::common::Rng& rng) {
  std::vector<trajectory::Trace> dataset(count);
  for (trajectory::Trace& t : dataset) {
    rfp::common::Vec2 pos{rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    t.points.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      t.points.push_back(pos);
      pos.x += rng.gaussian(0.0, 0.15);
      pos.y += rng.gaussian(0.0, 0.15);
    }
    t.label = trajectory::rangeClassOf(t);
  }
  return dataset;
}

TEST(TrainHotPath, SteadyStateAdvanceMakesNoHeapAllocations) {
  // One pool thread: the measured advance must run inline (a pooled GEMM
  // hands its row-panel body to parallelFor as a std::function, which may
  // allocate, and that is fine -- the contract is about the single-thread
  // hot path; parallel dispatch is perf-opt-in).
  rfp::common::ThreadPool::setGlobalThreads(1);
  rfp::common::Rng dataRng(42);
  const auto dataset = syntheticDataset(16, 10, dataRng);

  rfp::common::Rng rng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 8;
  tc.epochs = 1000;
  gan::TrajectoryGan gan(tinyGeneratorConfig(), tinyDiscriminatorConfig(), tc,
                         rng);
  gan::TrainingSession session(gan, dataset, rng);

  // Warm-up: more than one full epoch, so every workspace buffer in the
  // generator, discriminator, optimizers, and session has reached its
  // steady shape.
  for (int i = 0; i < 8; ++i) session.advance();

  std::size_t batchAllocs = static_cast<std::size_t>(-1);
  for (int i = 0; i < 4 && batchAllocs == static_cast<std::size_t>(-1); ++i) {
    g_allocCount.store(0);
    g_countAllocs.store(true);
    const auto ev = session.advance();
    g_countAllocs.store(false);
    if (ev.type == gan::TrainingSession::Event::Type::kBatch) {
      batchAllocs = g_allocCount.load();
    }
  }
  ASSERT_NE(batchAllocs, static_cast<std::size_t>(-1));
  EXPECT_EQ(batchAllocs, 0u)
      << "a steady-state training step hit the heap " << batchAllocs
      << " time(s)";
  rfp::common::ThreadPool::setGlobalThreads(0);
}

struct ShortRunResult {
  std::vector<double> losses;  ///< (D, G) per batch
  std::string weights;         ///< serialized network parameters
};

/// Trains a fresh tiny GAN for a few batches under the given kernel and
/// thread count; identical seeds throughout.
ShortRunResult shortGanRun(linalg::GemmKernel kernel, std::size_t threads,
                           const std::vector<trajectory::Trace>& dataset) {
  linalg::setGemmKernel(kernel);
  rfp::common::ThreadPool::setGlobalThreads(threads);
  rfp::common::Rng rng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 8;
  tc.epochs = 1000;
  gan::TrajectoryGan gan(tinyGeneratorConfig(), tinyDiscriminatorConfig(), tc,
                         rng);
  gan::TrainingSession session(gan, dataset, rng);

  ShortRunResult out;
  std::size_t batches = 0;
  while (batches < 6) {
    const auto ev = session.advance();
    if (ev.type != gan::TrainingSession::Event::Type::kBatch) continue;
    out.losses.push_back(ev.batch.discriminatorLoss);
    out.losses.push_back(ev.batch.generatorLoss);
    ++batches;
  }
  std::ostringstream os;
  serializeParameters(os, gan.networkParameters());
  out.weights = os.str();
  linalg::setGemmKernel(linalg::GemmKernel::kTiled);
  rfp::common::ThreadPool::setGlobalThreads(0);
  return out;
}

bool lossesBitIdentical(const ShortRunResult& a, const ShortRunResult& b) {
  return a.losses.size() == b.losses.size() &&
         std::memcmp(a.losses.data(), b.losses.data(),
                     a.losses.size() * sizeof(double)) == 0;
}

TEST(TrainHotPath, BitIdenticalAcrossKernelsAndThreadCounts) {
  // The naive gemm is always the seed scalar loop, so naive-vs-tiled
  // bit-identity is an sse2-level claim (DESIGN.md Sec. 13); pin the
  // dispatch level for the whole run.
  const auto prevLevel = rfp::common::simd::activeKernelLevel();
  rfp::common::simd::setActiveKernelLevel(
      rfp::common::simd::KernelLevel::kSse2);

  rfp::common::Rng dataRng(42);
  const auto dataset = syntheticDataset(16, 10, dataRng);

  const ShortRunResult naive =
      shortGanRun(linalg::GemmKernel::kNaive, 1, dataset);
  const ShortRunResult tiled1 =
      shortGanRun(linalg::GemmKernel::kTiled, 1, dataset);
  EXPECT_TRUE(lossesBitIdentical(naive, tiled1));
  EXPECT_EQ(naive.weights, tiled1.weights);

  for (std::size_t threads : {2ul, 4ul}) {
    const ShortRunResult tiledN =
        shortGanRun(linalg::GemmKernel::kTiled, threads, dataset);
    EXPECT_TRUE(lossesBitIdentical(tiled1, tiledN)) << "threads=" << threads;
    EXPECT_EQ(tiled1.weights, tiledN.weights) << "threads=" << threads;
  }
  rfp::common::simd::setActiveKernelLevel(prevLevel);
}

}  // namespace
}  // namespace rfp::nn
