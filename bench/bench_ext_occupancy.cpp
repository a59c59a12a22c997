/// \file bench_ext_occupancy.cpp
/// End-to-end version of the paper's Sec. 7 analysis, run through the
/// actual radar pipeline rather than the closed-form model:
///   [A] Occupancy distribution: over many epochs, the eavesdropper's
///       per-epoch moving-target counts track the truth exactly when
///       RF-Protect is off and are swamped by Bin(M, q) phantoms when on.
///   [B] Breath identification: with 1 real and 3 spoofed breathers, the
///       radar extracts four equally plausible breathing signals -- the
///       eavesdropper's best guess is right with probability N/(M+N)
///       (Sec. 7, "Breath Monitoring").

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/breathing_analysis.h"
#include "core/ghost_scheduler.h"
#include "core/harness.h"
#include "core/scenario.h"
#include "privacy/mutual_information.h"
#include "reflector/breathing_spoofer.h"
#include "tracking/stitcher.h"
#include "tracking/tracker.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;

trajectory::Trace fittingTrace(trajectory::HumanWalkModel& model,
                               common::Rng& rng, double maxRange) {
  trajectory::Trace t;
  do {
    t = trajectory::centered(model.sample(rng));
  } while (trajectory::motionRange(t) > maxRange);
  return t;
}

/// Runs \p epochs 10-second epochs; per epoch the true moving-occupant
/// count is Bin(2, 0.4) and (when enabled) phantoms follow Bin(M, q).
/// Returns per-epoch (true count, observed count).
std::vector<std::pair<int, int>> runCampaign(bool protect, int epochs,
                                             common::Rng& rng) {
  const core::Scenario scenario = core::makeHomeScenario();
  const double epochS = 10.0;
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  trajectory::HumanWalkModel ghostModel;

  trajectory::WalkModelOptions walkOpts;
  walkOpts.roomWidthM = scenario.plan.width();
  walkOpts.roomHeightM = scenario.plan.height();
  trajectory::HumanWalkModel humanModel(walkOpts);

  core::EavesdropperRadar radar(scenario.sensing);
  tracking::MultiTargetTracker tracker(scenario.sensing.tracker);
  core::RfProtectSystem system(scenario.makeController());
  core::GhostScheduler scheduler(
      {3, 0.5, epochS},
      [&](common::Rng& r) { return fittingTrace(ghostModel, r, 4.5); });

  std::vector<int> trueCounts;
  std::vector<std::pair<double, double>> epochWindows;

  for (int e = 0; e < epochs; ++e) {
    const double t0 = e * epochS;
    const int humans = rng.binomial(2, 0.4);
    trueCounts.push_back(humans);
    epochWindows.emplace_back(t0, t0 + epochS);

    // Fresh occupants for this epoch.
    env::Environment environment(scenario.plan);
    for (int h = 0; h < humans; ++h) {
      environment.addHuman(
          env::TimedPath(humanModel.longWalk(epochS, 0.05, rng), 0.05));
    }

    for (double t = t0; t < t0 + epochS; t += dt) {
      std::vector<env::PointScatterer> injected;
      if (protect) {
        scheduler.tick(t, system, scenario.plan, rng);
        injected = system.injectAt(t);
      }
      const auto scatterers = core::combineScatterers(
          environment, t - t0, rng, scenario.snapshot, injected);
      if (const auto obs = radar.observe(scatterers, t, rng)) {
        tracker.update(obs->detections, t);
      }
    }
  }

  // Count stitched chains covering >= 3 s of each epoch.
  tracking::StitchOptions stitchOpts;
  stitchOpts.minLength = 25;
  const auto chains = tracking::stitchTracker(tracker, stitchOpts);

  std::vector<std::pair<int, int>> result;
  for (int e = 0; e < epochs; ++e) {
    const auto [t0, t1] = epochWindows[static_cast<std::size_t>(e)];
    int observed = 0;
    for (const auto& chain : chains) {
      const double overlap =
          std::min(t1, chain.timestamps.back()) -
          std::max(t0, chain.timestamps.front());
      if (overlap >= 3.0) ++observed;
    }
    result.emplace_back(trueCounts[static_cast<std::size_t>(e)], observed);
  }
  return result;
}

void partA(common::Rng& rng) {
  std::printf("\n[A] Occupancy distribution through the radar pipeline\n");
  constexpr int kEpochs = 10;

  const auto unprotected = runCampaign(false, kEpochs, rng);
  const auto protectedRun = runCampaign(true, kEpochs, rng);

  std::printf("      epoch :");
  for (int e = 0; e < kEpochs; ++e) std::printf(" %2d", e);
  std::printf("\n  truth     :");
  for (const auto& [truth, obs] : unprotected) std::printf(" %2d", truth);
  std::printf("\n  observed  :");
  for (const auto& [truth, obs] : unprotected) std::printf(" %2d", obs);
  std::printf("   (RF-Protect off)\n  truth     :");
  for (const auto& [truth, obs] : protectedRun) std::printf(" %2d", truth);
  std::printf("\n  observed  :");
  for (const auto& [truth, obs] : protectedRun) std::printf(" %2d", obs);
  std::printf("   (RF-Protect on, M=3, q=0.5)\n");

  auto meanAbsErr = [](const std::vector<std::pair<int, int>>& xs) {
    double s = 0.0;
    for (const auto& [truth, obs] : xs) s += std::abs(obs - truth);
    return s / static_cast<double>(xs.size());
  };
  std::printf("  mean |observed - true|: %.2f (off) vs %.2f (on)\n",
              meanAbsErr(unprotected), meanAbsErr(protectedRun));
  std::printf("  closed-form leak at these knobs: I(X;Z) = %.3f bits "
              "(vs %.3f unprotected)\n",
              privacy::occupancyMutualInformation({2, 0.4, 3, 0.5}),
              privacy::occupancyMutualInformation({2, 0.4, 3, 0.0}));
}

void partB(common::Rng& rng) {
  std::printf("\n[B] Breath identification (Sec. 7, 'Breath Monitoring')\n");
  const core::Scenario scenario = core::makeOfficeScenario();
  core::SensingConfig sensing = scenario.sensing;
  sensing.radar.noisePower = 1e-5;
  core::EavesdropperRadar radar(sensing);
  const double frameRate = sensing.radar.frameRateHz;
  constexpr int kFrames = 500;

  // One real sleeper...
  env::Environment environment(scenario.plan);
  env::BreathingModel breathing;
  breathing.rateHz = 0.26;
  const common::Vec2 subject{5.6, 3.6};
  environment.addHuman(env::TimedPath::stationary(subject), breathing);

  // ...and three spoofed breathers at distinct spots/rates.
  struct Fake {
    common::Vec2 spot;
    double rateHz;
    double spoofRange = 0.0;
  };
  std::vector<Fake> fakes = {
      {{2.6, 3.4}, 0.22}, {{3.4, 5.0}, 0.30}, {{4.4, 2.6}, 0.35}};

  env::SnapshotOptions opts;
  opts.includeClutter = false;
  opts.includeMultipath = false;
  opts.rcsJitter = 0.0;

  std::vector<radar::Frame> frames;
  std::vector<std::unique_ptr<reflector::ReflectorController>> controllers;
  for (const Fake& f : fakes) {
    controllers.push_back(std::make_unique<reflector::ReflectorController>(
        scenario.makeController(reflector::BreathingSpoofer(
            f.rateHz, 0.005, sensing.radar.chirp.wavelength()))));
  }
  for (int i = 0; i < kFrames; ++i) {
    const double t = i / frameRate;
    auto scatterers = environment.snapshot(t, rng, opts);
    for (std::size_t k = 0; k < fakes.size(); ++k) {
      reflector::ControlCommand cmd;
      const auto tones = controllers[k]->spoof(
          fakes[k].spot, t, 1000 + static_cast<int>(k), &cmd);
      fakes[k].spoofRange = cmd.spoofedRangeM;
      scatterers.insert(scatterers.end(), tones.begin(), tones.end());
    }
    frames.push_back(radar.senseRaw(scatterers, t, rng));
  }

  std::printf("  breather      true rate   radar-extracted\n");
  const double realRange = distance(subject, sensing.radar.position);
  const double realRate = core::estimateRateHz(
      core::extractPhaseSeries(frames, radar.processor(), realRange),
      frameRate);
  std::printf("  human (real)    0.260 Hz      %.3f Hz\n", realRate);
  int plausible = (realRate > 0.1 && realRate < 0.7) ? 1 : 0;
  for (const Fake& f : fakes) {
    const double rate = core::estimateRateHz(
        core::extractPhaseSeries(frames, radar.processor(), f.spoofRange),
        frameRate);
    std::printf("  phantom         %.3f Hz      %.3f Hz\n", f.rateHz, rate);
    if (rate > 0.1 && rate < 0.7) ++plausible;
  }
  std::printf("  plausible breathing signals: %d of 4 -> eavesdropper's "
              "best guess is right %.0f%% of the time (N/(M+N) = %.0f%%)\n",
              plausible, 100.0 / plausible,
              100.0 * privacy::breathingGuessProbability(1, 3));
}

void printExtension() {
  bench::printHeader(
      "Extension -- occupancy & breathing privacy through the full radar "
      "pipeline");
  common::Rng rng(51);
  partA(rng);
  partB(rng);
}

void BM_OccupancyEpoch(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runCampaign(true, 1, rng));
  }
}
BENCHMARK(BM_OccupancyEpoch)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  printExtension();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
