#pragma once

/// \file fleet_engine.h
/// The sharded multi-scenario fleet engine (ROADMAP item 2): N
/// independent scenario instances advanced in lockstep epoch rounds over
/// the shared worker pool, with the three properties a service run by its
/// own workload must keep:
///
///   *Fault containment.* Every scenario epoch runs behind a catch-all
///   boundary on the worker; anything scenario code throws (poison
///   epochs, allocation failure, a tripped work-budget deadline) becomes
///   that scenario's FAILED(reason, file:line) terminal state. The
///   process, the pool, and every other scenario keep going.
///
///   *Deterministic scheduling.* One step() = one epoch round: admit from
///   the queue (priority order, FIFO within priority), run one epoch per
///   active scenario in parallel (each instance owns all its mutable
///   state; nested parallelism inside the sensing stack degrades to
///   serial on the worker), then a sequential post-pass in scenario-id
///   order ledgers every transition. Same seed + same submission sequence
///   -> byte-identical service ledger, even under scripted chaos, and
///   every *healthy* scenario's metrics are bit-identical to a solo run.
///
///   *Graceful overload.* Admission degrades through explicit tiers
///   (accept -> queue -> shed_lowest -> reject_new) instead of growing
///   unboundedly; every tier change and every shed scenario is ledgered.
///
/// The wall-clock watchdog thread is the second line of defense behind
/// the deterministic work-budget deadline: it flags scenarios whose epoch
/// round overruns real time (code that forgot to charge) and the engine
/// cancels them at the next epoch boundary. Wall time is nondeterministic,
/// so alarms only enter the ledger in runs that actually misbehave.
///
/// With a durability directory configured (DurabilityConfig), the engine
/// is additionally *crash-safe*: every admission decision and every epoch
/// round appends one atomic record to a CRC-framed write-ahead journal
/// (journal.h), the full logical state snapshots at epoch-round
/// boundaries (snapshot.h), and recover() rebuilds a killed shard from
/// snapshot + journal tail. In-flight scenario instances are restored by
/// deterministic *re-execution* to their journaled epoch position, so a
/// recovered shard's subsequent ledger is byte-identical and its healthy
/// metric streams bit-identical to an uninterrupted same-seed run.
/// Storage failures (ENOSPC, failed fsync) degrade durability -- an
/// explicit ledger record, journaling off, shard keeps serving -- never
/// crash the shard.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "fault/scenario_fault.h"
#include "fault/storage_fault.h"
#include "service/scenario_job.h"
#include "service/service_config.h"
#include "service/service_ledger.h"

namespace rfp::service {

class JournalWriter;
struct JournalLedgerEntry;
struct JournalRecord;
struct JournalSubmission;
struct EngineSnapshot;

/// One scenario submission: the key = value scenario text (parsed with
/// the scenario_config.h loader at activation; a malformed file FAILs the
/// scenario with the loader's source:line diagnostic), a client priority
/// (higher = more important; governs queue order and shedding), a seed,
/// and an optional scripted chaos timeline.
struct ScenarioSubmission {
  std::string name = "scenario";
  std::string scenarioText;
  int priority = 0;
  std::uint64_t seed = 1;
  fault::ScenarioFaultScript chaos;
};

/// What admission decided for one submission.
struct SubmitOutcome {
  std::uint64_t scenarioId = 0;
  AdmissionTier tier = AdmissionTier::kAccept;
  ScenarioState state = ScenarioState::kActive;
  std::string reason;
};

/// A scenario's current (or final) state.
struct ScenarioStatus {
  std::uint64_t id = 0;
  std::string name;
  int priority = 0;
  ScenarioState state = ScenarioState::kQueued;
  std::string reason;
  std::uint64_t epochsCompleted = 0;
  ScenarioSummary summary{};  ///< valid when state == kCompleted
};

/// Cumulative shard counters (bench/overview surface).
struct FleetCounters {
  std::size_t active = 0;
  std::size_t queued = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t cancelled = 0;
  std::uint64_t epochsRun = 0;
};

/// Wall-clock watchdog counters (nondeterministic; stats surface only).
struct WatchdogStats {
  std::uint64_t alarms = 0;            ///< rounds flagged as overrunning
  std::uint64_t scenariosFlagged = 0;  ///< scenarios marked for cancellation
};

/// What recover() found and did. On a fresh engine recovered is false.
struct RecoveryReport {
  bool recovered = false;           ///< engine was built via recover()
  bool usedSnapshotBackup = false;  ///< primary snapshot unusable; .bak used
  bool tornTail = false;      ///< journal ended in a partial record
  /// Durable history was truncated by detected corruption (bad CRC on a
  /// complete record, snapshot fallback losing records, unreadable
  /// snapshot). Always accompanied by an explicit RECOVERED ledger
  /// record -- loss is ledgered, never silent. A clean kill (no partial
  /// or corrupt bytes) never sets this: the lost unsynced tail is
  /// regenerated bit-identically by deterministic re-execution.
  bool lossDetected = false;
  std::uint64_t snapshotRound = 0;    ///< round the loaded snapshot held
  std::uint64_t recoveredRound = 0;   ///< round frontier after replay
  std::size_t replayedRecords = 0;    ///< journal records applied
  std::uint64_t reExecutedEpochs = 0; ///< epochs re-run to rebuild jobs
  std::string detail;                 ///< human-readable recovery story
};

/// One shard of the fleet scenario service. Public methods are
/// thread-safe against the watchdog thread; submit()/step()/accessors are
/// intended to be driven from one service thread (step() is synchronous).
class FleetEngine {
 public:
  /// Fresh shard. \p pool defaults to the process-wide pool; \p injector
  /// (optional, unowned, must outlive the engine) routes every physical
  /// storage operation of the durability path through the storage fault
  /// seam. With durability configured, *formats* the directory: any
  /// previous journal/snapshot files are removed and an empty generation-0
  /// snapshot plus journal is laid down. Throws on invalid config.
  explicit FleetEngine(const FleetServiceConfig& config,
                       rfp::common::ThreadPool* pool = nullptr,
                       fault::StorageFaultInjector* injector = nullptr);
  ~FleetEngine();

  /// Rebuilds a shard from config.durability.dir: loads the snapshot
  /// (falling back to .bak), replays the journal tail (truncating at the
  /// first torn or corrupt record), re-executes in-flight scenarios to
  /// their journaled epoch positions, ledgers an explicit
  /// RECOVERED(from_round) record iff durable history was lost, and
  /// rotates to a fresh snapshot + journal generation. Never throws for
  /// torn/corrupt/missing durable state (that degrades, with the loss
  /// ledgered); throws std::invalid_argument only when durability is not
  /// configured.
  static std::unique_ptr<FleetEngine> recover(
      const FleetServiceConfig& config,
      rfp::common::ThreadPool* pool = nullptr,
      fault::StorageFaultInjector* injector = nullptr);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Admission control; never blocks on scenario work. Every outcome
  /// (including rejections) is ledgered.
  SubmitOutcome submit(ScenarioSubmission submission);

  /// One epoch round. Returns the number of scenario epochs executed.
  std::size_t step();

  /// step() until no scenario is active or queued, at most \p maxRounds
  /// rounds. Returns rounds executed.
  std::size_t runUntilIdle(std::size_t maxRounds = 1000000);

  /// True when nothing is active or queued.
  bool idle() const;

  /// Moves out the per-epoch metrics accumulated for \p id since the last
  /// drain (the stream the protocol layer forwards to clients).
  std::vector<EpochMetrics> drainMetrics(std::uint64_t id);

  /// Retained metric history of \p id with epoch >= \p fromEpoch, oldest
  /// first (the session-resume replay source; non-destructive, unlike
  /// drainMetrics). History depth is capped at
  /// durability.retainMetricsEpochs, so a reconnect further back than the
  /// cap sees a gap: the first returned epoch is then > fromEpoch.
  /// Throws std::out_of_range for an unknown id.
  std::vector<EpochMetrics> metricsSince(std::uint64_t id,
                                         std::uint64_t fromEpoch) const;

  /// Throws std::out_of_range for an unknown id.
  ScenarioStatus status(std::uint64_t id) const;

  const ServiceLedger& ledger() const { return ledger_; }
  FleetCounters counters() const;
  WatchdogStats watchdogStats() const;
  std::uint64_t round() const { return round_; }
  const FleetServiceConfig& config() const { return config_; }

  /// How this engine came to be (recovered == false for fresh engines).
  const RecoveryReport& recoveryReport() const { return recovery_; }

  /// True once a storage failure disabled journaling (the shard keeps
  /// serving from memory; the degradation is ledgered).
  bool durabilityDegraded() const { return durabilityDegraded_; }

 private:
  struct Slot;
  struct RecoverTag {};

  FleetEngine(RecoverTag, const FleetServiceConfig& config,
              rfp::common::ThreadPool* pool,
              fault::StorageFaultInjector* injector);

  void ledgerScenario(std::uint64_t round, const Slot& slot,
                      ScenarioState state, std::string reason);
  void ledgerTier(std::uint64_t round, AdmissionTier tier,
                  std::string reason);
  void admitFromQueue(std::uint64_t round);
  /// A fresh job for \p slot's scenario, wrapped in its chaos schedule;
  /// a poison scenario file throws the loader's diagnostic.
  std::unique_ptr<ScenarioJob> buildJob(const Slot& slot) const;
  /// Lazily constructs the slot's job (inside the caller's containment
  /// boundary).
  void ensureJob(Slot& slot);
  /// One epoch of \p slot's job, the work unit of step()'s per-scenario
  /// pool fan-out, behind the containment ladder: stages the outcome (a
  /// throw becomes a staged FAILED reason) for the post-pass.
  void runOneEpoch(Slot& slot) noexcept;
  void retire(std::unique_ptr<Slot> slot);
  const Slot* findSlot(std::uint64_t id) const;
  Slot* findSlot(std::uint64_t id);
  void watchdogLoop();

  // Durability plumbing (all no-ops when durability is off or degraded).
  void pushMetric(Slot& slot, const EpochMetrics& m);
  /// Appends \p m to the slot's history, capped at
  /// durability.retainMetricsEpochs (oldest dropped first).
  void retainMetric(Slot& slot, const EpochMetrics& m) const;
  void formatDurability();
  std::vector<JournalLedgerEntry> ledgerEntriesSince(std::size_t mark) const;
  /// Appends \p record to the journal and fsyncs it.
  void journalSafely(const JournalRecord& record);
  void rotateDurability(std::uint64_t generation);
  EngineSnapshot buildEngineSnapshot(std::uint64_t generation) const;
  void snapshotNow();
  void degradeDurability(const fault::StorageError& error);
  void recoverFromDir();
  void applyLedgerEntry(const JournalLedgerEntry& entry,
                        const JournalSubmission* submission);
  std::uint64_t reExecuteSlots(
      const std::vector<std::pair<Slot*, std::uint64_t>>& work);

  FleetServiceConfig config_;
  rfp::common::ThreadPool* pool_;
  fault::StorageFaultInjector* injector_ = nullptr;

  mutable std::mutex mutex_;  ///< guards every container below + counters
  std::vector<std::unique_ptr<Slot>> active_;  ///< kept sorted by id
  std::vector<std::unique_ptr<Slot>> queue_;   ///< admission order
  std::vector<std::unique_ptr<Slot>> archive_; ///< terminal scenarios
  ServiceLedger ledger_;
  FleetCounters counters_;
  AdmissionTier lastTier_ = AdmissionTier::kAccept;
  std::uint64_t nextId_ = 1;
  std::uint64_t round_ = 0;

  // Durability state.
  std::unique_ptr<JournalWriter> journal_;  ///< null when off or degraded
  std::uint64_t journalGen_ = 0;
  std::uint64_t roundsSinceSnapshot_ = 0;
  bool durabilityDegraded_ = false;
  RecoveryReport recovery_;

  // Watchdog plumbing (atomics: written by step(), read by the thread).
  std::thread watchdog_;
  std::atomic<bool> stopWatchdog_{false};
  std::atomic<std::int64_t> roundStartNs_{0};  ///< 0 = no round running
  std::atomic<std::uint64_t> alarms_{0};
  std::atomic<std::uint64_t> scenariosFlagged_{0};
};

}  // namespace rfp::service
