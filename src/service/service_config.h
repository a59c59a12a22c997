#pragma once

/// \file service_config.h
/// Knobs of the fleet scenario service (ROADMAP item 2): how many
/// scenario instances one shard runs concurrently, how deep the admission
/// queue is, how big an epoch is, and the two deadline mechanisms that
/// keep a stuck scenario from wedging the shard.
///
/// Deadlines come in two layers with different trust models:
///
///  1. *Deterministic work budget* (epochWorkBudget): every scenario epoch
///     runs under an EpochContext that charges work units as it goes; an
///     epoch that exceeds its budget throws and the scenario FAILs. Purely
///     counter-based, so the service ledger stays byte-identical across
///     same-seed runs -- this is the deadline the chaos benches pin.
///  2. *Wall-clock watchdog* (watchdogWallDeadlineS): a background thread
///     that flags an epoch round taking too long in real time -- the
///     second line of defense for code that forgets to charge. Flagged
///     scenarios are cancelled at the next epoch boundary. Wall time is
///     not deterministic, so alarms are surfaced via stats and only enter
///     the ledger in runs that actually misbehave.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rfp::service {

/// Durability knobs of one shard (DESIGN.md Sec. 12). With \p dir empty
/// the engine keeps all state in memory (the pre-durability behavior);
/// with a directory set, every admission decision, tier transition,
/// epoch-round completion, and terminal state is appended to a
/// CRC-framed write-ahead journal, and the full engine state is
/// snapshotted at epoch-round boundaries every \p snapshotEveryRounds
/// rounds. FleetEngine::recover() rebuilds a killed shard from
/// snapshot + journal tail.
struct DurabilityConfig {
  /// Durability directory (journal segments + snapshot generations).
  /// Empty disables the durability layer entirely.
  std::string dir;

  /// Snapshot cadence [epoch rounds]. Journal segments rotate with each
  /// snapshot generation, so this bounds both journal replay length and
  /// on-disk journal growth.
  std::uint64_t snapshotEveryRounds = 16;

  /// Per-scenario retained metric-history depth [epochs] backing client
  /// session resume: a reconnecting client is replayed from its last
  /// acked epoch if that epoch is still retained, else gap-marked.
  std::size_t retainMetricsEpochs = 256;

  bool enabled() const { return !dir.empty(); }
};

/// Configuration of one FleetEngine shard.
struct FleetServiceConfig {
  /// Scenario instances running concurrently (shard capacity). Admissions
  /// beyond this queue, shed, or reject (the overload tiers).
  std::size_t maxActive = 8;
  /// Bounded admission queue depth; 0 disables queueing entirely.
  std::size_t queueCapacity = 16;

  /// Frames of one scenario advanced per epoch (one step() round runs one
  /// epoch of every active scenario).
  std::size_t epochFrames = 32;
  /// Deterministic per-epoch work budget [units]; frame simulation
  /// charges one unit per frame, so the default leaves ample slack for
  /// well-behaved epochs while a spinning one trips quickly.
  std::uint64_t epochWorkBudget = 4096;

  /// Wall-clock ceiling of one epoch round before the watchdog flags the
  /// scenarios still running [s]; <= 0 disables the watchdog thread.
  double watchdogWallDeadlineS = 30.0;
  /// Watchdog polling period [s].
  double watchdogPollS = 0.002;

  /// Master seed; scenario instance i derives its own stream from this
  /// and its (deterministic) admission id.
  std::uint64_t seed = 1;

  /// Crash-safety layer (journal + snapshots); disabled by default.
  DurabilityConfig durability;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const {
    if (maxActive == 0) {
      throw std::invalid_argument("FleetServiceConfig: maxActive must be >= 1");
    }
    if (epochFrames == 0) {
      throw std::invalid_argument(
          "FleetServiceConfig: epochFrames must be >= 1");
    }
    if (epochWorkBudget == 0) {
      throw std::invalid_argument(
          "FleetServiceConfig: epochWorkBudget must be >= 1");
    }
    if (watchdogPollS <= 0.0) {
      throw std::invalid_argument(
          "FleetServiceConfig: watchdogPollS must be > 0");
    }
    if (durability.enabled()) {
      if (durability.snapshotEveryRounds == 0) {
        throw std::invalid_argument(
            "FleetServiceConfig: durability.snapshotEveryRounds must be >= 1");
      }
      if (durability.retainMetricsEpochs == 0) {
        throw std::invalid_argument(
            "FleetServiceConfig: durability.retainMetricsEpochs must be >= 1");
      }
    }
  }
};

/// Graceful-overload admission tiers, in degradation order. The service
/// ledgers every tier change, so an overload episode leaves an auditable
/// accept -> queue -> shed_lowest -> reject_new trail.
enum class AdmissionTier {
  kAccept = 0,      ///< capacity available; scenario starts immediately
  kQueue = 1,       ///< shard full; scenario waits in the bounded queue
  kShedLowest = 2,  ///< queue full; a lower-priority queued scenario was
                    ///< shed to admit this one
  kRejectNew = 3,   ///< queue full of equal-or-higher priority; rejected
};

/// Canonical lower-snake names (ledger/bench JSON; stable across versions).
const char* admissionTierName(AdmissionTier tier);

}  // namespace rfp::service
