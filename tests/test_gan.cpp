#include <cstdio>

#include <gtest/gtest.h>

#include "temp_path.h"

#include "common/rng.h"
#include "gan/discriminator.h"
#include "gan/generator.h"
#include "gan/trajectory_gan.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "trajectory/human_walk.h"

namespace rfp::gan {
namespace {

GeneratorConfig tinyG() {
  GeneratorConfig g;
  g.noiseDim = 4;
  g.labelEmbeddingDim = 3;
  g.hiddenSize = 8;
  g.lstmLayers = 2;
  g.dropout = 0.0;
  g.traceLength = 10;
  return g;
}

DiscriminatorConfig tinyD() {
  DiscriminatorConfig d;
  d.labelEmbeddingDim = 3;
  d.featureSize = 6;
  d.hiddenSize = 8;
  d.dropout = 0.0;
  d.traceLength = 10;
  return d;
}

TEST(Generator, ForwardShapes) {
  rfp::common::Rng rng(1);
  Generator g(tinyG(), rng);
  nn::Matrix z(3, 4);
  nn::fillGaussian(z, rng);
  const auto out = g.forward(z, {0, 2, 4}, /*training=*/false, rng);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].rows(), 3u);
  EXPECT_EQ(out[0].cols(), 2u);
  EXPECT_THROW(g.forward(nn::Matrix(3, 7), {0, 1, 2}, false, rng),
               std::invalid_argument);
}

TEST(Generator, SampleProducesLabeledTraces) {
  rfp::common::Rng rng(2);
  Generator g(tinyG(), rng);
  const auto traces = g.sample(5, 3, rng);
  ASSERT_EQ(traces.size(), 5u);
  for (const auto& t : traces) {
    EXPECT_EQ(t.label, 3);
    EXPECT_EQ(t.points.size(), 10u);
  }
  // Different noise -> different trajectories.
  EXPECT_GT(distance(traces[0].points[5], traces[1].points[5]), 1e-9);
}

TEST(Generator, ConditioningChangesOutput) {
  rfp::common::Rng rng(3);
  Generator g(tinyG(), rng);
  nn::Matrix z(1, 4);
  nn::fillGaussian(z, rng);
  const auto a = g.forward(z, {0}, false, rng);
  const auto b = g.forward(z, {4}, false, rng);
  double diff = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) diff += a[t].maxAbsDiff(b[t]);
  EXPECT_GT(diff, 1e-6);
}

TEST(Generator, SampleMixedRespectsWeights) {
  rfp::common::Rng rng(4);
  Generator g(tinyG(), rng);
  const auto traces = g.sampleMixed(40, {0.0, 0.0, 1.0, 0.0, 0.0}, rng);
  for (const auto& t : traces) EXPECT_EQ(t.label, 2);
  EXPECT_THROW(g.sampleMixed(5, {1.0}, rng), std::invalid_argument);
  EXPECT_THROW(g.sampleMixed(5, {0.0, 0.0, 0.0, 0.0, 0.0}, rng),
               std::invalid_argument);
}

TEST(Discriminator, LogitsShapeAndScore) {
  rfp::common::Rng rng(5);
  Discriminator d(tinyD(), rng);
  std::vector<nn::Matrix> xs(10, nn::Matrix(4, 2));
  for (auto& x : xs) nn::fillGaussian(x, rng);
  const auto logits = d.forward(xs, {0, 1, 2, 3}, false, rng);
  EXPECT_EQ(logits.rows(), 4u);
  EXPECT_EQ(logits.cols(), 1u);
  EXPECT_THROW(d.forward(xs, {0, 1}, false, rng), std::invalid_argument);
}

TEST(Discriminator, ScoreTracesInUnitInterval) {
  rfp::common::Rng rng(6);
  Discriminator d(tinyD(), rng);
  trajectory::Trace t;
  t.label = 1;
  t.points.assign(10, {0.5, 0.5});
  const auto scores = d.scoreTraces({t, t}, rng);
  ASSERT_EQ(scores.size(), 2u);
  for (double s : scores) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
  // Eval mode is deterministic: identical traces score identically.
  EXPECT_DOUBLE_EQ(scores[0], scores[1]);
}

TEST(Discriminator, BackwardReturnsPerStepInputGradients) {
  rfp::common::Rng rng(7);
  Discriminator d(tinyD(), rng);
  std::vector<nn::Matrix> xs(10, nn::Matrix(2, 2));
  for (auto& x : xs) nn::fillGaussian(x, rng);
  const auto logits = d.forward(xs, {0, 1}, true, rng);
  nn::Matrix dLogits(2, 1, 1.0);
  const auto dxs = d.backward(dLogits);
  ASSERT_EQ(dxs.size(), 10u);
  EXPECT_EQ(dxs[0].rows(), 2u);
  EXPECT_EQ(dxs[0].cols(), 2u);
  double norm = 0.0;
  for (const auto& dx : dxs) norm += dx.frobeniusNorm();
  EXPECT_GT(norm, 1e-9);  // gradient actually flows to the inputs
}

TEST(GeneratorThroughDiscriminator, GradientsReachGeneratorParameters) {
  rfp::common::Rng rng(8);
  Generator g(tinyG(), rng);
  Discriminator d(tinyD(), rng);

  nn::Matrix z(2, 4);
  nn::fillGaussian(z, rng);
  const std::vector<int> labels = {1, 3};

  nn::zeroGradients(g.parameters());
  const auto fake = g.forward(z, labels, true, rng);
  const auto logits = d.forward(fake, labels, true, rng);
  nn::Matrix ones(2, 1, 1.0);
  const auto loss = nn::bceWithLogits(logits, ones);
  const auto dFake = d.backward(loss.dLogits);
  g.backward(dFake);

  double gradNorm = 0.0;
  for (nn::Parameter* p : g.parameters()) {
    gradNorm += p->grad.frobeniusNorm();
  }
  EXPECT_GT(gradNorm, 1e-9);
}

TEST(TrajectoryGan, LabelHistogram) {
  std::vector<trajectory::Trace> data(6);
  data[0].label = 0;
  data[1].label = 2;
  data[2].label = 2;
  data[3].label = 4;
  data[4].label = 4;
  data[5].label = 4;
  const auto hist = TrajectoryGan::labelHistogram(data, 5);
  EXPECT_DOUBLE_EQ(hist[0], 1.0);
  EXPECT_DOUBLE_EQ(hist[2], 2.0);
  EXPECT_DOUBLE_EQ(hist[4], 3.0);
}

TEST(TrajectoryGan, ShortTrainingRunsAndReportsStats) {
  rfp::common::Rng rng(9);
  trajectory::HumanWalkModel model;
  auto dataset = model.dataset(64, rng);
  // Step-space GAN: traces carry traceLength + 1 points.
  for (auto& t : dataset) {
    t.points = trajectory::resample(t.points, 11);
  }

  GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = 2;
  TrajectoryGan gan(tinyG(), tinyD(), tc, rng);

  std::vector<GanEpochStats> stats;
  gan.train(dataset, rng,
            [&](const GanEpochStats& s) { stats.push_back(s); });
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_GT(s.discriminatorLoss, 0.0);
    EXPECT_GT(s.generatorLoss, 0.0);
    EXPECT_GT(s.realScoreMean, 0.0);
    EXPECT_LT(s.realScoreMean, 1.0);
  }
  EXPECT_GT(gan.coordinateScale(), 0.0);

  // Sampled traces are positional: traceLength + 1 points, zero centroid.
  rfp::common::Rng sampleRng(55);
  const auto sampled = gan.sample(3, {1, 1, 1, 1, 1}, sampleRng);
  ASSERT_EQ(sampled.size(), 3u);
  for (const auto& t : sampled) {
    EXPECT_EQ(t.points.size(), 11u);
    rfp::common::Vec2 c{};
    for (const auto& p : t.points) c += p;
    EXPECT_NEAR(c.norm(), 0.0, 1e-9);
  }
}

TEST(TrajectoryGan, SaveLoadRoundTrip) {
  rfp::common::Rng rng(10);
  GanTrainingConfig tc;
  TrajectoryGan a(tinyG(), tinyD(), tc, rng);
  const std::string path = rfp::test::tempPath("gan_ckpt.txt");
  a.save(path);

  rfp::common::Rng rng2(77);
  TrajectoryGan b(tinyG(), tinyD(), tc, rng2);
  b.load(path);
  rfp::common::Rng sampleRng(5);
  rfp::common::Rng sampleRng2(5);
  const auto ta = a.generator().sample(1, 2, sampleRng);
  const auto tb = b.generator().sample(1, 2, sampleRng2);
  for (std::size_t i = 0; i < ta[0].points.size(); ++i) {
    EXPECT_NEAR(ta[0].points[i].x, tb[0].points[i].x, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(TrajectoryGan, RejectsMismatchedConfigs) {
  rfp::common::Rng rng(11);
  auto g = tinyG();
  auto d = tinyD();
  d.traceLength = 20;
  EXPECT_THROW(TrajectoryGan(g, d, {}, rng), std::invalid_argument);
}

TEST(TrajectoryGan, RejectsTooSmallDataset) {
  rfp::common::Rng rng(12);
  GanTrainingConfig tc;
  tc.batchSize = 32;
  TrajectoryGan gan(tinyG(), tinyD(), tc, rng);
  std::vector<trajectory::Trace> tiny(4);
  EXPECT_THROW(gan.train(tiny, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rfp::gan
