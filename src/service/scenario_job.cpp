#include "service/scenario_job.h"

#include <new>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/stats.h"
#include "core/harness.h"
#include "core/scenario_config.h"
#include "trajectory/human_walk.h"

namespace rfp::service {

namespace {

/// The real fleet workload: one spoofing experiment advanced epoch by
/// epoch. Owns every mutable piece (scenario, system, rng, runner), so
/// instances are fully independent; the only shared state is the
/// process-wide immutable twiddle/steering caches.
class SpoofScenarioJob : public ScenarioJob {
 public:
  SpoofScenarioJob(const std::string& scenarioText,
                   const std::string& sourceName, std::uint64_t seed,
                   std::size_t epochFrames)
      : epochFrames_(epochFrames),
        rng_(seed),
        scenario_(loadFrom(scenarioText, sourceName)) {
    trajectory::HumanWalkModel model;
    trajectory::Trace trace;
    do {
      trace = trajectory::centered(model.sample(rng_));
    } while (trajectory::motionRange(trace) > 3.5);

    system_ = std::make_unique<core::RfProtectSystem>(
        scenario_.makeController());
    const double dt = 1.0 / scenario_.sensing.radar.frameRateHz;
    const double start = 2.0 * dt;  // let background subtraction settle
    const int ghostId =
        system_->addGhostAuto(trace, start, scenario_.plan, rng_);
    runner_ = std::make_unique<core::SpoofEpochRunner>(
        scenario_, *system_, ghostId, start, rng_);
  }

  bool done() const override { return runner_->done(); }

  EpochMetrics runEpoch(EpochContext& ctx) override {
    EpochMetrics m;
    m.epoch = nextEpoch_++;
    // Frame-at-a-time so every frame charges the work budget: the
    // deterministic deadline sees progress, not just epoch boundaries.
    for (std::size_t i = 0; i < epochFrames_ && !runner_->done(); ++i) {
      ctx.charge(1);
      const core::SpoofEpochSample s = runner_->runFrames(1);
      m.framesSimulated += s.framesSimulated;
      m.framesTotal += s.framesTotal;
      m.framesDetected += s.framesDetected;
      m.sumDistanceErrorM += s.sumDistanceErrorM;
      m.sumAngleErrorDeg += s.sumAngleErrorDeg;
    }
    return m;
  }

  ScenarioSummary summary() override {
    const core::SpoofRunResult result = runner_->finish();
    ScenarioSummary s;
    s.framesTotal = result.framesTotal;
    s.framesDetected = result.framesDetected;
    if (!result.distanceErrorsM.empty()) {
      s.medianDistanceErrorM = rfp::common::median(result.distanceErrorsM);
    }
    if (!result.locationErrorsM.empty()) {
      s.medianLocationErrorM = rfp::common::median(result.locationErrorsM);
    }
    return s;
  }

 private:
  static core::Scenario loadFrom(const std::string& text,
                                 const std::string& sourceName) {
    std::istringstream in(text);
    return core::loadScenario(in, sourceName);
  }

  std::size_t epochFrames_;
  rfp::common::Rng rng_;
  core::Scenario scenario_;
  std::unique_ptr<core::RfProtectSystem> system_;
  std::unique_ptr<core::SpoofEpochRunner> runner_;
  std::uint64_t nextEpoch_ = 0;
};

/// Chaos wrapper: misbehaves at scripted epochs instead of delegating.
class FaultableJob : public ScenarioJob {
 public:
  FaultableJob(std::unique_ptr<ScenarioJob> inner,
               fault::ScenarioFaultScript script)
      : inner_(std::move(inner)), script_(std::move(script)) {}

  bool done() const override { return inner_->done(); }

  EpochMetrics runEpoch(EpochContext& ctx) override {
    misbehaveAt(nextEpoch_++, ctx);
    return inner_->runEpoch(ctx);
  }

  ScenarioSummary summary() override { return inner_->summary(); }

 private:
  void misbehaveAt(std::uint64_t epoch, EpochContext& ctx) {
    const auto fault = script_.at(epoch);
    if (!fault.has_value()) return;
    switch (*fault) {
      case fault::ScenarioFaultKind::kPoisonEpoch:
        throw ScenarioError("scripted poison epoch " + std::to_string(epoch),
                            RFP_SERVICE_HERE);
      case fault::ScenarioFaultKind::kStuckEpoch:
        // An "infinite loop" that only the work-budget deadline ends:
        // charge forever and let EpochContext throw.
        for (;;) ctx.charge(1);
      case fault::ScenarioFaultKind::kAllocFailure:
        throw std::bad_alloc();
    }
  }

  std::unique_ptr<ScenarioJob> inner_;
  fault::ScenarioFaultScript script_;
  std::uint64_t nextEpoch_ = 0;
};

}  // namespace

std::unique_ptr<ScenarioJob> makeSpoofScenarioJob(
    const std::string& scenarioText, const std::string& sourceName,
    std::uint64_t seed, std::size_t epochFrames) {
  return std::make_unique<SpoofScenarioJob>(scenarioText, sourceName, seed,
                                            epochFrames);
}

std::unique_ptr<ScenarioJob> makeFaultableJob(
    std::unique_ptr<ScenarioJob> inner, fault::ScenarioFaultScript script) {
  return std::make_unique<FaultableJob>(std::move(inner), std::move(script));
}

}  // namespace rfp::service
