#pragma once

/// \file fleet.h
/// The fleet-service workloads: N homes submitted to a FleetEngine shard
/// and driven by one service thread calling step() until idle (a closed
/// loop), timed at a 1-thread pool and checked against the full pool,
/// optionally durable with the shard destroyed and recover()ed at fixed
/// rounds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/storage_fault.h"
#include "report.h"
#include "service/fleet_engine.h"

namespace perfbench {

/// The cost-reduced radar (8 samples x 3 antennas per chirp), no clutter.
extern const char* const kToyScenario;
/// The paper's radar (500 samples x 7 antennas) in the office, with its six
/// cabinet and desk clutter points.
extern const char* const kPaperScenario;

/// Shard capacity of every fleet workload.
inline constexpr std::size_t kMaxActive = 16;

struct FleetSpec {
  const char* scenarioText = kToyScenario;
  std::size_t homes = 0;        ///< submissions per pass
  std::size_t epochFrames = 32;
  bool durable = false;
  /// 0: every home is submitted before the first step. Otherwise the first
  /// kMaxActive homes are, then this many more before each round.
  std::size_t submitsPerRound = 0;
};

/// Seeded inputs of one fleet workload.
struct FleetInputs {
  std::uint64_t engineSeed = 1;
  std::vector<rfp::service::ScenarioSubmission> submissions;
};

FleetInputs makeFleetInputs(const FleetSpec& spec, std::uint64_t seed,
                            std::size_t homes);

struct PassOptions {
  std::string durableDir;  ///< required when the spec is durable
  /// Destroy the engine after these rounds and rebuild it with recover().
  std::vector<std::uint64_t> crashAfterRounds;
  Tracer* tracer = nullptr;  ///< spans around submit / step / recover
  rfp::fault::StorageFaultInjector* injector = nullptr;
};

struct PassResult {
  double setupS = 0.0;  ///< engine construction through the last up-front submit
  double runS = 0.0;    ///< first step through idle
  std::vector<double> roundMs;
  std::vector<double> recoverMs;
  std::uint64_t rounds = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;  ///< failed + shed + rejected + cancelled
  std::string ledger;
  std::vector<std::uint64_t> ids;  ///< scenario ids, in submission order
  /// Every scenario's metric stream, in submission order (passes without
  /// recoveries only).
  std::vector<std::vector<rfp::service::EpochMetrics>> streams;
  /// CRC32 of the ledger plus the metric streams.
  std::uint32_t digest = 0;
  bool lossDetected = false;
  bool tornTail = false;
  std::vector<double> replayedRecords;  ///< per recovery
  std::vector<double> reExecutedEpochs;
};

PassResult runFleetPass(const FleetSpec& spec, const FleetInputs& inputs,
                        const PassOptions& options);

/// End-to-end run (tracing off) for --seconds: 1-thread passes, then one
/// untimed full-pool pass whose output must equal theirs.
void measureFleet(const FleetSpec& spec, std::uint64_t seed, double seconds,
                  const std::string& scratchDir, Report& report);

/// Traced run: service-layer spans on the workload's homes plus the
/// frame-layer replay, written to \p tracer. Untraced and traced 1-thread
/// passes and an untraced full-pool pass repeat for \p pairSeconds (at
/// least once).
TraceSummary traceFleet(const FleetSpec& spec, std::uint64_t seed,
                  double pairSeconds, const std::string& scratchDir,
                  Tracer& tracer, Report& report);

/// Durability-layer metrics of \p spec (durable), and the check that a
/// pass destroyed and recover()ed after rounds R/4, R/2 and 3R/4 ends with
/// the uninterrupted pass's ledger and no loss.
void traceDurability(const FleetSpec& spec, std::uint64_t seed,
                     const std::string& scratchDir, Tracer& tracer,
                     Report& report);

}  // namespace perfbench
