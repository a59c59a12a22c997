#include "gan.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/stats.h"
#include "gan/trajectory_gan.h"
#include "trajectory/human_walk.h"

namespace perfbench {

using rfp::common::median;
using rfp::common::percentile;
using rfp::gan::TrainingSession;

namespace {

constexpr std::size_t kDatasetTraces = 600;

/// Dataset, model and session of one training run (the timed set-up).
struct GanRun {
  explicit GanRun(std::uint64_t seed) : rng(inputSeed(seed, kStreamGan)) {
    rfp::trajectory::HumanWalkModel walker;
    dataset = walker.dataset(kDatasetTraces, rng);
    rfp::gan::GanTrainingConfig config;
    config.batchSize = 32;
    config.epochs = 1u << 30;  // the step count ends a pass
    gan = std::make_unique<rfp::gan::TrajectoryGan>(
        rfp::bench::benchGeneratorConfig(),
        rfp::bench::benchDiscriminatorConfig(), config, rng);
    session = std::make_unique<TrainingSession>(*gan, dataset, rng);
  }
  GanRun(const GanRun&) = delete;
  GanRun& operator=(const GanRun&) = delete;

  rfp::common::Rng rng;  // held by reference by gan and session
  std::vector<rfp::trajectory::Trace> dataset;
  std::unique_ptr<rfp::gan::TrajectoryGan> gan;
  std::unique_ptr<TrainingSession> session;
};

struct GanPass {
  double setupS = 0.0;
  double runS = 0.0;           ///< steps after the first
  std::vector<double> stepMs;  ///< steps after the first
  std::size_t steps = 0;
  std::size_t skipped = 0;     ///< vetoed discriminator or generator updates
  bool finite = true;
  std::uint32_t lossDigest = 0;
};

double rate(const GanPass& p) {
  return static_cast<double>(p.stepMs.size()) / p.runS;
}

/// \p steps mini-batches; the first one (workspace sizing) is not timed.
/// With a tracer, each timed advance() is split at the gradient hooks.
GanPass runGanPass(std::uint64_t seed, std::size_t steps, Tracer* tracer) {
  GanPass out;
  const auto setupStart = Clock::now();
  GanRun run(seed);
  out.setupS = secondsSince(setupStart);

  Clock::time_point dHook, gHook;
  if (tracer != nullptr) {
    run.session->setGradientHook(
        [&](const char* network, const rfp::nn::ParameterList&) {
          (std::string(network) == "discriminator" ? dHook : gHook) =
              Clock::now();
          return true;
        });
  }

  std::uint32_t crc = rfp::common::kCrc32Init;
  Clock::time_point runStart;
  while (out.steps < steps) {
    const auto start = Clock::now();
    const TrainingSession::Event ev = run.session->advance();
    const auto end = Clock::now();
    if (ev.type != TrainingSession::Event::Type::kBatch) continue;
    const auto& b = ev.batch;
    out.finite = out.finite && std::isfinite(b.discriminatorLoss) &&
                 std::isfinite(b.generatorLoss);
    if (b.discriminatorStepSkipped || b.generatorStepSkipped) ++out.skipped;
    crc = rfp::common::crc32Update(crc, &b.discriminatorLoss,
                                   sizeof(b.discriminatorLoss));
    crc = rfp::common::crc32Update(crc, &b.generatorLoss,
                                   sizeof(b.generatorLoss));
    if (out.steps++ == 0) {
      runStart = end;
      continue;
    }
    out.stepMs.push_back(std::chrono::duration<double, std::milli>(end - start)
                             .count());
    if (tracer != nullptr) {
      const int step = tracer->record("gan.step", start, end, out.steps);
      tracer->record("gan.d_pass", start, dHook, out.steps, step);
      tracer->record("gan.g_pass", dHook, gHook, out.steps, step);
      tracer->record("nn.adam_g", gHook, end, out.steps, step);
    }
  }
  out.runS = secondsSince(runStart);
  out.lossDigest = crc ^ 0xffffffffu;
  return out;
}

constexpr std::size_t kStepsPerPass = 8;

}  // namespace

void measureGan(std::uint64_t seed, double seconds, Report& report) {
  const auto start = Clock::now();
  useOneThread();
  runGanPass(seed, 2, nullptr);  // warm-up

  // As for the fleets: the fastest instance of each step over the run's
  // passes is its least disturbed one (see METRICS.md).
  std::vector<double> setupS, rates, stepMs, minStepMs;
  std::set<std::uint32_t> digests;
  bool finite = true;
  double lastRep = 0.0;
  do {
    const auto repStart = Clock::now();
    const GanPass one = runGanPass(seed, kStepsPerPass, nullptr);
    setupS.push_back(one.setupS);
    digests.insert(one.lossDigest);
    finite = finite && one.finite;
    report.count(one.steps, one.skipped);
    rates.push_back(rate(one));
    stepMs.insert(stepMs.end(), one.stepMs.begin(), one.stepMs.end());
    keepMinima(minStepMs, one.stepMs);
    lastRep = secondsSince(repStart);
  } while (secondsSince(start) + 2.0 * lastRep <= seconds);
  const double peakRss = peakRssMb();

  // One pass at the full pool, untimed and after the peak RSS is read: its
  // losses must equal the 1-thread passes'.
  useFullPool();
  const GanPass pool = runGanPass(seed, kStepsPerPass, nullptr);
  useOneThread();
  digests.insert(pool.lossDigest);
  finite = finite && pool.finite;
  report.count(pool.steps, pool.skipped);

  const std::size_t passes = rates.size();
  const double minTotalS =
      std::accumulate(minStepMs.begin(), minStepMs.end(), 0.0) / 1.0e3;
  report.note("passes", std::to_string(passes) + " x 1 thread of " +
                            std::to_string(kStepsPerPass) +
                            " steps, then 1 untimed full-pool pass");
  const std::string digest = hex32(pool.lossDigest);
  report.note("output_digest", digest);
  report.note("throughput_pool_per_s",
              std::to_string(rate(pool)) + " (one pass, untimed)");
  report.note("throughput_1t_median_per_s", std::to_string(median(rates)));
  report.note("round_p90_1t_ms", std::to_string(percentile(stepMs, 90.0)) +
                                     " (every pass, n=" +
                                     std::to_string(stepMs.size()) + ")");
  report.metric("throughput_1t_per_s",
                static_cast<double>(minStepMs.size()) / minTotalS, "1/s",
                passes);
  report.metric("round_p50_1t_ms", median(minStepMs), "ms",
                minStepMs.size());
  report.metric("setup_s", median(setupS), "s", setupS.size());
  report.metric("peak_rss_mb", peakRss, "MiB", 1);
  report.check("every step's discriminator and generator loss is finite",
               finite);
  report.check("losses bit-identical at 1 thread and full pool (CRC32 " +
                   digest + ")",
               digests.size() == 1);
}

TraceSummary traceGan(std::uint64_t seed, std::size_t steps,
                      double pairSeconds, Tracer& tracer, Report& report) {
  useOneThread();
  runGanPass(seed, 2, nullptr);  // warm-up
  std::vector<double> untracedRates, tracedRates, speedups;
  std::set<std::uint32_t> digests;
  bool finite = true;
  const auto start = Clock::now();
  double lastRep = 0.0;
  do {
    const auto repStart = Clock::now();
    useOneThread();
    const GanPass one = runGanPass(seed, steps, nullptr);
    const GanPass traced = runGanPass(seed, steps, &tracer);
    useFullPool();
    const GanPass pool = runGanPass(seed, steps, nullptr);
    untracedRates.push_back(rate(one));
    tracedRates.push_back(rate(traced));
    speedups.push_back(rate(pool) / rate(one));
    for (const GanPass* p : {&one, &traced, &pool}) {
      digests.insert(p->lossDigest);
      finite = finite && p->finite;
      report.count(p->steps, p->skipped);
    }
    lastRep = secondsSince(repStart);
  } while (secondsSince(start) + lastRep <= pairSeconds);
  useOneThread();

  const auto ms = [&](const char* span) {
    const auto us = tracer.durationsUs(span);
    report.metric(std::string(span) + "_ms", median(us) / 1.0e3, "ms",
                  us.size());
  };
  ms("gan.d_pass");
  ms("gan.g_pass");
  ms("nn.adam_g");
  report.check("traced GAN losses bit-identical to the untraced 1-thread and "
               "full-pool runs, all finite",
               digests.size() == 1 && finite);
  return {median(untracedRates) / median(tracedRates) - 1.0, median(speedups),
          speedups.size()};
}

}  // namespace perfbench
