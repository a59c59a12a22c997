#pragma once

/// \file scenario_job.h
/// The unit of work the fleet service schedules: a scenario instance that
/// advances in epoch-sized slices and may fail, spin, or exhaust memory
/// without taking the shard down. Exceptions are the containment
/// boundary's currency -- anything a job throws is caught by the engine
/// and turned into a per-scenario FAILED(reason, file:line) terminal
/// state, never process death.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "fault/scenario_fault.h"

namespace rfp::service {

#define RFP_SERVICE_STR2(x) #x
#define RFP_SERVICE_STR(x) RFP_SERVICE_STR2(x)
/// "file:line" literal of the expansion site; the containment boundary
/// stamps it on every failure reason so a FAILED scenario names where it
/// died.
#define RFP_SERVICE_HERE (__FILE__ ":" RFP_SERVICE_STR(__LINE__))

/// A scenario-level failure with a source location. what() is
/// "file:line: reason" -- the exact string the service ledger records.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(const std::string& reason, const char* where)
      : std::runtime_error(std::string(where) + ": " + reason) {}
};

/// Thrown by EpochContext::charge when an epoch exceeds its deterministic
/// work budget: the cooperative deadline that ends a stuck epoch without
/// wall clocks (so same-seed service ledgers stay byte-identical).
class EpochDeadlineExceeded : public ScenarioError {
 public:
  EpochDeadlineExceeded(std::uint64_t charged, std::uint64_t budget,
                        const char* where)
      : ScenarioError("epoch work budget exceeded (charged " +
                          std::to_string(charged) + " of " +
                          std::to_string(budget) + " units)",
                      where) {}
};

/// Per-epoch execution context: the deterministic deadline. Scenario code
/// charges work units as it progresses; exceeding the budget throws.
class EpochContext {
 public:
  explicit EpochContext(std::uint64_t budget) : budget_(budget) {}

  /// Charges \p units of work; throws EpochDeadlineExceeded once the
  /// epoch's cumulative charge exceeds the budget.
  void charge(std::uint64_t units = 1) {
    charged_ += units;
    if (charged_ > budget_) {
      throw EpochDeadlineExceeded(charged_, budget_, RFP_SERVICE_HERE);
    }
  }

  std::uint64_t charged() const { return charged_; }
  std::uint64_t budget() const { return budget_; }

 private:
  std::uint64_t budget_ = 0;
  std::uint64_t charged_ = 0;
};

/// One epoch's privacy metrics, as streamed to the submitting client.
/// Sums (not means) so values are exact and byte-stable on the wire.
struct EpochMetrics {
  std::uint64_t epoch = 0;            ///< 0-based epoch index
  std::size_t framesSimulated = 0;    ///< frame-loop iterations consumed
  std::size_t framesTotal = 0;        ///< ghost-active observed frames
  std::size_t framesDetected = 0;     ///< frames with a followed detection
  double sumDistanceErrorM = 0.0;     ///< summed |range| deviation
  double sumAngleErrorDeg = 0.0;      ///< summed bearing deviation
};

/// End-of-run summary of a completed scenario.
struct ScenarioSummary {
  std::size_t framesTotal = 0;
  std::size_t framesDetected = 0;
  double medianDistanceErrorM = 0.0;
  double medianLocationErrorM = 0.0;
};

/// Interface of a schedulable scenario instance. runEpoch advances the
/// scenario by one epoch under \p ctx's work budget; done() reports
/// natural completion; summary() is valid once done. Implementations may
/// throw from any method -- the engine contains it.
class ScenarioJob {
 public:
  virtual ~ScenarioJob() = default;
  virtual bool done() const = 0;
  virtual EpochMetrics runEpoch(EpochContext& ctx) = 0;
  virtual ScenarioSummary summary() = 0;
};

/// Builds the real workload: a spoofing-experiment instance over the full
/// sensing stack (SpoofEpochRunner), owning its scenario, system, and
/// seeded rng so concurrent instances share nothing mutable. \p
/// scenarioText is the key = value scenario format of scenario_config.h;
/// malformed or semantically invalid text throws the loader's
/// source:line diagnostic, which the engine records as the FAILED reason.
std::unique_ptr<ScenarioJob> makeSpoofScenarioJob(
    const std::string& scenarioText, const std::string& sourceName,
    std::uint64_t seed, std::size_t epochFrames);

/// Wraps \p inner with a scripted chaos timeline: at each scripted epoch
/// the wrapper misbehaves (throws, spins against the work budget, or
/// fails an allocation) instead of delegating. Used by the chaos benches
/// and tests to prove the containment boundary.
std::unique_ptr<ScenarioJob> makeFaultableJob(
    std::unique_ptr<ScenarioJob> inner, fault::ScenarioFaultScript script);

}  // namespace rfp::service
