#include "service/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <new>
#include <stdexcept>
#include <utility>

#include "common/det_hash.h"
#include "service/journal.h"
#include "service/snapshot.h"

namespace rfp::service {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stream id (det_hash) deriving each scenario instance's job seed from
/// the service seed and the admission id, so two submissions of the same
/// scenario text under different ids decorrelate unless the client pins
/// the seed.
constexpr std::uint64_t kStreamJobSeed = 41;

}  // namespace

/// One scenario instance's full state. Slots live behind unique_ptr so
/// their addresses are stable across container reshuffles -- the watchdog
/// thread holds no lock while the pool runs, only the per-slot atomics.
struct FleetEngine::Slot {
  // Immutable submission data.
  std::uint64_t id = 0;
  std::string name;
  int priority = 0;
  std::uint64_t jobSeed = 1;
  std::string scenarioText;
  fault::ScenarioFaultScript chaos;

  // Engine-owned lifecycle state (mutated under the engine mutex or in
  // the sequential post-pass).
  ScenarioState state = ScenarioState::kQueued;
  std::string reason;
  std::unique_ptr<ScenarioJob> job;
  std::uint64_t epochsDone = 0;
  std::vector<EpochMetrics> pendingMetrics;
  /// Retained metric history (capped at durability.retainMetricsEpochs):
  /// the non-destructive replay source behind session resume, and what
  /// snapshots persist so a recovered shard can replay reconnecting
  /// clients without re-running archived scenarios.
  std::vector<EpochMetrics> history;
  ScenarioSummary summary{};

  // One round's staged outcome: written only by the worker running this
  // slot's epoch, read only by the post-pass after the round barrier.
  enum class Outcome { kNone, kRan, kFailedOut };
  Outcome outcome = Outcome::kNone;
  EpochMetrics stagedMetrics{};
  bool stagedDone = false;
  ScenarioSummary stagedSummary{};
  std::string stagedReason;

  // Watchdog handshake (the only cross-thread fields during a round).
  std::atomic<bool> running{false};
  std::atomic<bool> watchdogFlagged{false};
};

FleetEngine::FleetEngine(const FleetServiceConfig& config,
                         rfp::common::ThreadPool* pool,
                         fault::StorageFaultInjector* injector)
    : config_(config),
      pool_(pool != nullptr ? pool : &rfp::common::ThreadPool::global()),
      injector_(injector) {
  config_.validate();
  if (config_.durability.enabled()) formatDurability();
  if (config_.watchdogWallDeadlineS > 0.0) {
    watchdog_ = std::thread([this] { watchdogLoop(); });
  }
}

FleetEngine::FleetEngine(RecoverTag, const FleetServiceConfig& config,
                         rfp::common::ThreadPool* pool,
                         fault::StorageFaultInjector* injector)
    : config_(config),
      pool_(pool != nullptr ? pool : &rfp::common::ThreadPool::global()),
      injector_(injector) {
  config_.validate();
  if (!config_.durability.enabled()) {
    throw std::invalid_argument(
        "FleetEngine::recover: durability.dir is not configured");
  }
  // No formatting, no watchdog yet: recoverFromDir() rebuilds the state
  // first; the caller (recover()) starts the watchdog afterwards.
}

std::unique_ptr<FleetEngine> FleetEngine::recover(
    const FleetServiceConfig& config, rfp::common::ThreadPool* pool,
    fault::StorageFaultInjector* injector) {
  std::unique_ptr<FleetEngine> engine(
      new FleetEngine(RecoverTag{}, config, pool, injector));
  engine->recoverFromDir();
  if (engine->config_.watchdogWallDeadlineS > 0.0) {
    engine->watchdog_ = std::thread([e = engine.get()] { e->watchdogLoop(); });
  }
  return engine;
}

FleetEngine::~FleetEngine() {
  if (watchdog_.joinable()) {
    stopWatchdog_.store(true, std::memory_order_release);
    watchdog_.join();
  }
}

void FleetEngine::ledgerScenario(std::uint64_t round, const Slot& slot,
                                 ScenarioState state, std::string reason) {
  ServiceLedgerRecord rec;
  rec.round = round;
  rec.scenarioId = slot.id;
  rec.priority = slot.priority;
  rec.isTierRecord = false;
  rec.state = state;
  rec.reason = std::move(reason);
  ledger_.add(std::move(rec));
}

void FleetEngine::ledgerTier(std::uint64_t round, AdmissionTier tier,
                             std::string reason) {
  ServiceLedgerRecord rec;
  rec.round = round;
  rec.isTierRecord = true;
  rec.tier = tier;
  rec.reason = std::move(reason);
  ledger_.add(std::move(rec));
}

SubmitOutcome FleetEngine::submit(ScenarioSubmission submission) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t ledgerMark = ledger_.size();
  auto slot = std::make_unique<Slot>();
  slot->id = nextId_++;
  slot->name = std::move(submission.name);
  slot->priority = submission.priority;
  slot->jobSeed = rfp::common::hashBits(config_.seed, slot->id,
                                        kStreamJobSeed) ^
                  submission.seed;
  slot->scenarioText = std::move(submission.scenarioText);
  slot->chaos = std::move(submission.chaos);

  SubmitOutcome out;
  out.scenarioId = slot->id;

  if (active_.size() < config_.maxActive) {
    out.tier = AdmissionTier::kAccept;
    out.state = ScenarioState::kActive;
    out.reason = "admitted";
    slot->state = ScenarioState::kActive;
    slot->reason = out.reason;
  } else if (queue_.size() < config_.queueCapacity) {
    out.tier = AdmissionTier::kQueue;
    out.state = ScenarioState::kQueued;
    out.reason =
        "shard full; queued at depth " + std::to_string(queue_.size() + 1);
    slot->state = ScenarioState::kQueued;
    slot->reason = out.reason;
  } else {
    // Queue full: shed the lowest-priority queued scenario (tie -> the
    // youngest) only when the newcomer outranks it; otherwise reject.
    auto victim = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (victim == queue_.end() ||
          (*it)->priority < (*victim)->priority ||
          ((*it)->priority == (*victim)->priority &&
           (*it)->id > (*victim)->id)) {
        victim = it;
      }
    }
    if (victim != queue_.end() && (*victim)->priority < slot->priority) {
      out.tier = AdmissionTier::kShedLowest;
      out.state = ScenarioState::kQueued;
      out.reason = "queued after shedding scenario " +
                   std::to_string((*victim)->id) + " (priority " +
                   std::to_string((*victim)->priority) + " < " +
                   std::to_string(slot->priority) + ")";
      std::unique_ptr<Slot> shed = std::move(*victim);
      queue_.erase(victim);
      shed->state = ScenarioState::kShed;
      shed->reason = "shed for scenario " + std::to_string(slot->id) +
                     " (priority " + std::to_string(slot->priority) + ")";
      ledgerScenario(round_, *shed, ScenarioState::kShed, shed->reason);
      ++counters_.shed;
      archive_.push_back(std::move(shed));
      slot->state = ScenarioState::kQueued;
      slot->reason = out.reason;
    } else {
      out.tier = AdmissionTier::kRejectNew;
      out.state = ScenarioState::kRejected;
      out.reason = "queue full (depth " + std::to_string(queue_.size()) +
                   ") and no lower-priority scenario to shed";
      slot->state = ScenarioState::kRejected;
      slot->reason = out.reason;
    }
  }

  if (out.tier != lastTier_) {
    ledgerTier(round_, out.tier,
               std::string("admission degraded ") +
                   admissionTierName(lastTier_) + " -> " +
                   admissionTierName(out.tier));
    lastTier_ = out.tier;
  }
  ledgerScenario(round_, *slot, slot->state, slot->reason);

  JournalRecord journaled;
  if (journal_ != nullptr) {
    journaled.kind = JournalRecordKind::kSubmit;
    journaled.submit.scenarioId = slot->id;
    journaled.submit.name = slot->name;
    journaled.submit.priority = slot->priority;
    journaled.submit.jobSeed = slot->jobSeed;
    journaled.submit.scenarioText = slot->scenarioText;
    journaled.submit.chaos = slot->chaos.events();
    journaled.ledger = ledgerEntriesSince(ledgerMark);
  }

  switch (slot->state) {
    case ScenarioState::kActive:
      active_.push_back(std::move(slot));
      break;
    case ScenarioState::kQueued:
      queue_.push_back(std::move(slot));
      break;
    default:
      ++counters_.rejected;
      archive_.push_back(std::move(slot));
      break;
  }
  // WAL before ack: the admission decision is durable before the caller
  // sees the outcome, so an acked submission survives any kill. The one record carries the decision *and* its ledger
  // entries, so a torn tail can never persist half an admission.
  if (journal_ != nullptr) {
    journalSafely(journaled);
  }
  return out;
}

void FleetEngine::admitFromQueue(std::uint64_t round) {
  while (active_.size() < config_.maxActive && !queue_.empty()) {
    // Highest priority first, FIFO (lowest id) within a priority.
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if ((*it)->priority > (*best)->priority ||
          ((*it)->priority == (*best)->priority &&
           (*it)->id < (*best)->id)) {
        best = it;
      }
    }
    std::unique_ptr<Slot> slot = std::move(*best);
    queue_.erase(best);
    slot->state = ScenarioState::kActive;
    slot->reason = "promoted from queue";
    ledgerScenario(round, *slot, ScenarioState::kActive, slot->reason);
    // Keep active_ sorted by id so the post-pass (and the ledger) walk
    // scenarios in a deterministic order.
    const auto pos = std::upper_bound(
        active_.begin(), active_.end(), slot,
        [](const std::unique_ptr<Slot>& a, const std::unique_ptr<Slot>& b) {
          return a->id < b->id;
        });
    active_.insert(pos, std::move(slot));
  }
}

std::unique_ptr<ScenarioJob> FleetEngine::buildJob(const Slot& slot) const {
  auto job = makeSpoofScenarioJob(slot.scenarioText, slot.name, slot.jobSeed,
                                  config_.epochFrames);
  if (!slot.chaos.empty()) {
    job = makeFaultableJob(std::move(job), slot.chaos);
  }
  return job;
}

void FleetEngine::ensureJob(Slot& slot) {
  // Lazy construction inside the containment boundary: a poison
  // scenario file FAILs here with the loader's source:line message.
  if (slot.job == nullptr) slot.job = buildJob(slot);
}

void FleetEngine::runOneEpoch(Slot& slot) noexcept {
  // The containment ladder: any throw becomes the slot's staged FAILED
  // outcome instead of unwinding into the pool.
  try {
    ensureJob(slot);
    EpochContext ctx(config_.epochWorkBudget);
    slot.stagedMetrics = slot.job->runEpoch(ctx);
    slot.stagedDone = slot.job->done();
    if (slot.stagedDone) slot.stagedSummary = slot.job->summary();
    slot.outcome = Slot::Outcome::kRan;
    return;
  } catch (const ScenarioError& e) {
    slot.stagedReason = e.what();  // already "file:line: reason"
  } catch (const std::bad_alloc&) {
    slot.stagedReason =
        std::string(RFP_SERVICE_HERE) + ": allocation failure (std::bad_alloc)";
  } catch (const std::exception& e) {
    slot.stagedReason = std::string(RFP_SERVICE_HERE) + ": " + e.what();
  } catch (...) {
    slot.stagedReason =
        std::string(RFP_SERVICE_HERE) + ": non-standard exception";
  }
  slot.outcome = Slot::Outcome::kFailedOut;
}

void FleetEngine::retire(std::unique_ptr<Slot> slot) {
  // The archive keeps status/summary/metrics, not the simulation state: a
  // 1000-scenario sweep must not hold 1000 retired radar systems alive.
  slot->job.reset();
  switch (slot->state) {
    case ScenarioState::kCompleted:
      ++counters_.completed;
      break;
    case ScenarioState::kFailed:
      ++counters_.failed;
      break;
    case ScenarioState::kCancelled:
      ++counters_.cancelled;
      break;
    default:
      break;
  }
  archive_.push_back(std::move(slot));
}

std::size_t FleetEngine::step() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t round = round_++;
  const std::size_t ledgerMark = ledger_.size();
  JournalRecord roundRecord;
  roundRecord.kind = JournalRecordKind::kRound;
  roundRecord.round = round;
  admitFromQueue(round);
  if (active_.empty()) {
    // Even an empty round is journaled: round_ advanced, and replay must
    // advance it identically or every later ledger record's round number
    // would diverge.
    if (journal_ != nullptr) {
      roundRecord.ledger = ledgerEntriesSince(ledgerMark);
      journalSafely(roundRecord);
    }
    return 0;
  }

  for (auto& slot : active_) {
    slot->outcome = Slot::Outcome::kNone;
    slot->stagedReason.clear();
    slot->stagedDone = false;
    slot->running.store(true, std::memory_order_release);
  }
  const std::size_t n = active_.size();
  // The pool phase runs without the engine lock (the watchdog scans the
  // slots meanwhile); active_ is not mutated until the post-pass below.
  lock.unlock();
  roundStartNs_.store(nowNs(), std::memory_order_release);
  pool_->parallelFor(0, n, [this](std::size_t i) {
    runOneEpoch(*active_[i]);
    active_[i]->running.store(false, std::memory_order_release);
  });
  roundStartNs_.store(0, std::memory_order_release);
  lock.lock();

  // Sequential post-pass in scenario-id order (active_ is id-sorted):
  // metrics, ledger transitions, retirement -- the deterministic surface.
  std::size_t epochsExecuted = 0;
  std::vector<std::unique_ptr<Slot>> stillActive;
  stillActive.reserve(active_.size());
  for (auto& slot : active_) {
    switch (slot->outcome) {
      case Slot::Outcome::kRan: {
        ++epochsExecuted;
        ++counters_.epochsRun;
        ++slot->epochsDone;
        roundRecord.participants.push_back({slot->id, slot->epochsDone});
        pushMetric(*slot, slot->stagedMetrics);
        if (slot->stagedDone) {
          slot->state = ScenarioState::kCompleted;
          slot->summary = slot->stagedSummary;
          slot->reason = "trace exhausted after " +
                         std::to_string(slot->epochsDone) + " epochs";
          ledgerScenario(round, *slot, slot->state, slot->reason);
          retire(std::move(slot));
        } else if (slot->watchdogFlagged.load(std::memory_order_acquire)) {
          // Wall-clock overrun: cancel at this epoch boundary. Only
          // reachable in runs that actually overran, so deterministic
          // ledgers stay deterministic.
          slot->state = ScenarioState::kCancelled;
          slot->reason =
              "wall-clock watchdog alarm; cancelled at epoch boundary";
          ledgerScenario(round, *slot, slot->state, slot->reason);
          retire(std::move(slot));
        } else {
          stillActive.push_back(std::move(slot));
        }
        break;
      }
      case Slot::Outcome::kFailedOut: {
        ++epochsExecuted;
        ++counters_.epochsRun;
        // epochsDone deliberately not advanced: the failed epoch produced
        // no metrics, and replay re-runs exactly the successful prefix.
        roundRecord.participants.push_back({slot->id, slot->epochsDone});
        slot->state = ScenarioState::kFailed;
        slot->reason = slot->stagedReason;
        ledgerScenario(round, *slot, slot->state, slot->reason);
        retire(std::move(slot));
        break;
      }
      case Slot::Outcome::kNone:
        // Unreachable today (runOneEpoch is noexcept and always stages an
        // outcome); kept active rather than silently dropped.
        stillActive.push_back(std::move(slot));
        break;
    }
  }
  active_ = std::move(stillActive);

  if (journal_ != nullptr) {
    // One atomic record for the whole round -- positions, transitions,
    // summaries -- then the batched fsync: the journal's durability
    // frontier advances in round-sized steps.
    roundRecord.ledger = ledgerEntriesSince(ledgerMark);
    journalSafely(roundRecord);
  }
  if (journal_ != nullptr &&
      ++roundsSinceSnapshot_ >= config_.durability.snapshotEveryRounds) {
    snapshotNow();
  }
  return epochsExecuted;
}

std::size_t FleetEngine::runUntilIdle(std::size_t maxRounds) {
  std::size_t rounds = 0;
  while (rounds < maxRounds && !idle()) {
    step();
    ++rounds;
  }
  return rounds;
}

bool FleetEngine::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.empty() && queue_.empty();
}

const FleetEngine::Slot* FleetEngine::findSlot(std::uint64_t id) const {
  for (const auto& s : active_) {
    if (s->id == id) return s.get();
  }
  for (const auto& s : queue_) {
    if (s->id == id) return s.get();
  }
  for (const auto& s : archive_) {
    if (s->id == id) return s.get();
  }
  return nullptr;
}

FleetEngine::Slot* FleetEngine::findSlot(std::uint64_t id) {
  return const_cast<Slot*>(
      static_cast<const FleetEngine*>(this)->findSlot(id));
}

std::vector<EpochMetrics> FleetEngine::drainMetrics(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot* slot = findSlot(id);
  if (slot == nullptr) {
    throw std::out_of_range("FleetEngine: unknown scenario id " +
                            std::to_string(id));
  }
  std::vector<EpochMetrics> out = std::move(slot->pendingMetrics);
  slot->pendingMetrics.clear();
  return out;
}

ScenarioStatus FleetEngine::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = findSlot(id);
  if (slot == nullptr) {
    throw std::out_of_range("FleetEngine: unknown scenario id " +
                            std::to_string(id));
  }
  ScenarioStatus st;
  st.id = slot->id;
  st.name = slot->name;
  st.priority = slot->priority;
  st.state = slot->state;
  st.reason = slot->reason;
  st.epochsCompleted = slot->epochsDone;
  st.summary = slot->summary;
  return st;
}

FleetCounters FleetEngine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  FleetCounters c = counters_;
  c.active = active_.size();
  c.queued = queue_.size();
  return c;
}

std::vector<EpochMetrics> FleetEngine::metricsSince(
    std::uint64_t id, std::uint64_t fromEpoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = findSlot(id);
  if (slot == nullptr) {
    throw std::out_of_range("FleetEngine: unknown scenario id " +
                            std::to_string(id));
  }
  std::vector<EpochMetrics> out;
  for (const EpochMetrics& m : slot->history) {
    if (m.epoch >= fromEpoch) out.push_back(m);
  }
  return out;
}

// --- Durability layer -------------------------------------------------

void FleetEngine::pushMetric(Slot& slot, const EpochMetrics& m) {
  slot.pendingMetrics.push_back(m);
  retainMetric(slot, m);
}

void FleetEngine::retainMetric(Slot& slot, const EpochMetrics& m) const {
  slot.history.push_back(m);
  const std::size_t cap = config_.durability.retainMetricsEpochs;
  if (cap > 0 && slot.history.size() > cap) {
    slot.history.erase(slot.history.begin(),
                       slot.history.begin() +
                           static_cast<std::ptrdiff_t>(slot.history.size() -
                                                       cap));
  }
}

void FleetEngine::formatDurability() {
  namespace fs = std::filesystem;
  const std::string& dir = config_.durability.dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  // Remove every previous incarnation's durability files: a fresh engine
  // that inherited a stale higher-generation journal would otherwise let
  // a later recover() replay records from a different life.
  std::error_code iterEc;
  for (const auto& entry : fs::directory_iterator(dir, iterEc)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 ||
        name.rfind("snapshot.rfps", 0) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
  try {
    rotateDurability(0);
  } catch (const fault::StorageError& e) {
    degradeDurability(e);
  }
}

std::vector<JournalLedgerEntry> FleetEngine::ledgerEntriesSince(
    std::size_t mark) const {
  std::vector<JournalLedgerEntry> out;
  const std::vector<ServiceLedgerRecord>& records = ledger_.records();
  out.reserve(records.size() - mark);
  for (std::size_t i = mark; i < records.size(); ++i) {
    JournalLedgerEntry entry;
    entry.record = records[i];
    if (!entry.record.isTierRecord && !entry.record.isRecoveryRecord &&
        entry.record.state == ScenarioState::kCompleted) {
      const Slot* slot = findSlot(entry.record.scenarioId);
      if (slot != nullptr) {
        entry.hasSummary = true;
        entry.summary = slot->summary;
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

void FleetEngine::journalSafely(const JournalRecord& record) {
  if (journal_ == nullptr) return;
  try {
    journal_->append(record);
    journal_->sync();
  } catch (const fault::StorageError& e) {
    degradeDurability(e);
  }
}

EngineSnapshot FleetEngine::buildEngineSnapshot(
    std::uint64_t generation) const {
  const auto slotToSnapshot = [](const Slot& slot) {
    SlotSnapshot out;
    out.id = slot.id;
    out.name = slot.name;
    out.priority = slot.priority;
    out.jobSeed = slot.jobSeed;
    out.scenarioText = slot.scenarioText;
    out.chaos = slot.chaos.events();
    out.state = slot.state;
    out.reason = slot.reason;
    out.epochsDone = slot.epochsDone;
    out.hasSummary = slot.state == ScenarioState::kCompleted;
    if (out.hasSummary) out.summary = slot.summary;
    out.history = slot.history;
    return out;
  };
  EngineSnapshot snap;
  snap.generation = generation;
  snap.round = round_;
  snap.nextId = nextId_;
  snap.lastTier = lastTier_;
  snap.epochsRun = counters_.epochsRun;
  snap.completed = counters_.completed;
  snap.failed = counters_.failed;
  snap.shed = counters_.shed;
  snap.rejected = counters_.rejected;
  snap.cancelled = counters_.cancelled;
  snap.ledger = ledger_.records();
  snap.active.reserve(active_.size());
  for (const auto& s : active_) snap.active.push_back(slotToSnapshot(*s));
  snap.queue.reserve(queue_.size());
  for (const auto& s : queue_) snap.queue.push_back(slotToSnapshot(*s));
  snap.archive.reserve(archive_.size());
  for (const auto& s : archive_) snap.archive.push_back(slotToSnapshot(*s));
  return snap;
}

void FleetEngine::rotateDurability(std::uint64_t generation) {
  const std::string& dir = config_.durability.dir;
  saveSnapshot(dir, buildEngineSnapshot(generation), injector_);
  journal_ = std::make_unique<JournalWriter>(dir, generation,
                                             /*truncate=*/true, injector_);
  journalGen_ = generation;
  roundsSinceSnapshot_ = 0;
  // Retain exactly one previous journal generation: the .bak snapshot is
  // generation-1 and needs journal-(generation-1) to replay its tail.
  if (generation >= 2) {
    std::error_code ec;
    std::filesystem::remove(journalPath(dir, generation - 2), ec);
  }
}

void FleetEngine::snapshotNow() {
  try {
    rotateDurability(journalGen_ + 1);
  } catch (const fault::StorageError& e) {
    degradeDurability(e);
  }
}

void FleetEngine::degradeDurability(const fault::StorageError& error) {
  if (durabilityDegraded_) return;
  durabilityDegraded_ = true;
  journal_.reset();
  // Availability over durability: the shard keeps serving from memory,
  // and the degradation is an explicit ledger record -- an operator
  // reading the ledger can see exactly when crash-safety ended.
  ServiceLedgerRecord rec;
  rec.round = round_;
  rec.isRecoveryRecord = true;
  rec.recoveredFromRound = round_;
  rec.reason = std::string("durability degraded, journaling disabled: ") +
               error.what();
  ledger_.add(std::move(rec));
}

void FleetEngine::applyLedgerEntry(const JournalLedgerEntry& entry,
                                   const JournalSubmission* submission) {
  const ServiceLedgerRecord& rec = entry.record;
  ledger_.add(rec);
  if (rec.isTierRecord) {
    lastTier_ = rec.tier;
    return;
  }
  if (rec.isRecoveryRecord) return;

  const auto materialize = [&]() {
    auto slot = std::make_unique<Slot>();
    slot->id = rec.scenarioId;
    slot->priority = rec.priority;
    if (submission != nullptr && submission->scenarioId == rec.scenarioId) {
      slot->name = submission->name;
      slot->priority = submission->priority;
      slot->jobSeed = submission->jobSeed;
      slot->scenarioText = submission->scenarioText;
      for (const fault::ScenarioFaultEvent& e : submission->chaos) {
        slot->chaos.addEvent(e);
      }
    }
    return slot;
  };
  const auto takeFrom = [](std::vector<std::unique_ptr<Slot>>& from,
                           std::uint64_t id) -> std::unique_ptr<Slot> {
    for (auto it = from.begin(); it != from.end(); ++it) {
      if ((*it)->id == id) {
        std::unique_ptr<Slot> slot = std::move(*it);
        from.erase(it);
        return slot;
      }
    }
    return nullptr;
  };

  switch (rec.state) {
    case ScenarioState::kQueued: {
      std::unique_ptr<Slot> slot = materialize();
      slot->state = ScenarioState::kQueued;
      slot->reason = rec.reason;
      queue_.push_back(std::move(slot));
      break;
    }
    case ScenarioState::kActive: {
      // A promotion moves the slot out of the queue; a direct admission
      // materializes it from the submission in the same journal record.
      std::unique_ptr<Slot> slot = takeFrom(queue_, rec.scenarioId);
      if (slot == nullptr) slot = materialize();
      slot->state = ScenarioState::kActive;
      slot->reason = rec.reason;
      const auto pos = std::upper_bound(
          active_.begin(), active_.end(), slot,
          [](const std::unique_ptr<Slot>& a, const std::unique_ptr<Slot>& b) {
            return a->id < b->id;
          });
      active_.insert(pos, std::move(slot));
      break;
    }
    case ScenarioState::kShed: {
      std::unique_ptr<Slot> slot = takeFrom(queue_, rec.scenarioId);
      if (slot == nullptr) slot = materialize();
      slot->state = ScenarioState::kShed;
      slot->reason = rec.reason;
      ++counters_.shed;
      archive_.push_back(std::move(slot));
      break;
    }
    case ScenarioState::kRejected: {
      std::unique_ptr<Slot> slot = materialize();
      slot->state = ScenarioState::kRejected;
      slot->reason = rec.reason;
      ++counters_.rejected;
      archive_.push_back(std::move(slot));
      break;
    }
    case ScenarioState::kCompleted:
    case ScenarioState::kFailed:
    case ScenarioState::kCancelled: {
      std::unique_ptr<Slot> slot = takeFrom(active_, rec.scenarioId);
      if (slot == nullptr) slot = materialize();
      slot->state = rec.state;
      slot->reason = rec.reason;
      if (entry.hasSummary) slot->summary = entry.summary;
      slot->job.reset();
      if (rec.state == ScenarioState::kCompleted) ++counters_.completed;
      if (rec.state == ScenarioState::kFailed) ++counters_.failed;
      if (rec.state == ScenarioState::kCancelled) ++counters_.cancelled;
      archive_.push_back(std::move(slot));
      break;
    }
  }
}

std::uint64_t FleetEngine::reExecuteSlots(
    const std::vector<std::pair<Slot*, std::uint64_t>>& work) {
  if (work.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& w : work) total += w.second;
  // Each worker owns exactly one slot; no shared mutable state. The
  // containment contract matches runOneEpoch: nothing a job throws may
  // escape the worker.
  pool_->parallelFor(0, work.size(), [this, &work](std::size_t i) {
    Slot* slot = work[i].first;
    const std::uint64_t target = work[i].second;
    try {
      auto job = buildJob(*slot);
      slot->history.clear();
      for (std::uint64_t e = 0; e < target; ++e) {
        EpochContext ctx(config_.epochWorkBudget);
        retainMetric(*slot, job->runEpoch(ctx));
      }
      if (!isTerminal(slot->state)) slot->job = std::move(job);
    } catch (const std::exception& e) {
      // Deterministic re-execution of previously-successful epochs should
      // never throw; if it does, contain it (stagedReason is drained by
      // recoverFromDir into the recovery report) rather than dying.
      slot->stagedReason = std::string(RFP_SERVICE_HERE) +
                           ": re-execution diverged: " + e.what();
    } catch (...) {
      slot->stagedReason = std::string(RFP_SERVICE_HERE) +
                           ": re-execution diverged: non-standard exception";
    }
  });
  return total;
}

void FleetEngine::recoverFromDir() {
  namespace fs = std::filesystem;
  const std::string& dir = config_.durability.dir;
  RecoveryReport rep;
  rep.recovered = true;
  std::string story;

  // 1. Snapshot (with .bak fallback). An absent primary is the normal
  // footprint of a kill mid-rotation (the old primary was renamed to
  // .bak, the new one not yet written) -- no data loss, because the
  // previous journal generation is retained. A *present but corrupt*
  // primary is detected corruption.
  std::error_code ec;
  const std::string snapPath = snapshotPath(dir);
  const bool primaryExists = fs::exists(snapPath, ec);
  const bool backupExists = fs::exists(snapPath + ".bak", ec);
  EngineSnapshot snap;  // default: empty shard, generation 0
  bool skipReplay = false;
  if (primaryExists || backupExists) {
    try {
      SnapshotLoadResult loaded = loadSnapshot(dir);
      snap = std::move(loaded.snapshot);
      rep.usedSnapshotBackup = loaded.usedBackup;
      story += loaded.detail + "; ";
      if (loaded.usedBackup && primaryExists) {
        rep.lossDetected = true;  // corruption detected, reported below
      }
    } catch (const std::exception& e) {
      // No generation verifies: the journal tail cannot be interpreted
      // against an unknown base state. Reset to empty -- loudly.
      rep.lossDetected = true;
      skipReplay = true;
      snap = EngineSnapshot{};
      story += std::string("no snapshot generation verifies (") + e.what() +
               "); state reset; ";
    }
  } else {
    story += "no snapshot on disk (first boot or formatting crash); ";
  }

  // 2. Seed the engine from the snapshot.
  rep.snapshotRound = snap.round;
  round_ = snap.round;
  nextId_ = snap.nextId > 0 ? snap.nextId : 1;
  lastTier_ = snap.lastTier;
  counters_ = FleetCounters{};
  counters_.epochsRun = snap.epochsRun;
  counters_.completed = static_cast<std::size_t>(snap.completed);
  counters_.failed = static_cast<std::size_t>(snap.failed);
  counters_.shed = static_cast<std::size_t>(snap.shed);
  counters_.rejected = static_cast<std::size_t>(snap.rejected);
  counters_.cancelled = static_cast<std::size_t>(snap.cancelled);
  for (const ServiceLedgerRecord& r : snap.ledger) ledger_.add(r);
  const auto snapshotToSlot = [](const SlotSnapshot& s) {
    auto slot = std::make_unique<Slot>();
    slot->id = s.id;
    slot->name = s.name;
    slot->priority = s.priority;
    slot->jobSeed = s.jobSeed;
    slot->scenarioText = s.scenarioText;
    for (const fault::ScenarioFaultEvent& e : s.chaos) {
      slot->chaos.addEvent(e);
    }
    slot->state = s.state;
    slot->reason = s.reason;
    slot->epochsDone = s.epochsDone;
    if (s.hasSummary) slot->summary = s.summary;
    slot->history = s.history;
    return slot;
  };
  // Per-slot epoch position at snapshot time: the history baseline.
  // Archived slots whose epochsDone never moved past it keep their
  // snapshotted history verbatim and are not re-run.
  std::map<std::uint64_t, std::uint64_t> baselineEpochs;
  for (const SlotSnapshot& s : snap.active) {
    baselineEpochs[s.id] = s.epochsDone;
    active_.push_back(snapshotToSlot(s));
  }
  for (const SlotSnapshot& s : snap.queue) {
    baselineEpochs[s.id] = s.epochsDone;
    queue_.push_back(snapshotToSlot(s));
  }
  for (const SlotSnapshot& s : snap.archive) {
    baselineEpochs[s.id] = s.epochsDone;
    archive_.push_back(snapshotToSlot(s));
  }

  // 3. Replay the journal tail: the snapshot's generation, then any later
  // generation (present when the snapshot was restored from .bak -- the
  // retained previous journal covers the gap with zero loss). Replay
  // stops at the first torn or corrupt record; a torn tail is the normal
  // footprint of a crash mid-append, corruption of a complete record is
  // detected loss.
  const std::uint64_t firstGen = snap.generation;
  journalGen_ = firstGen;
  if (!skipReplay) {
    for (std::uint64_t gen = firstGen;; ++gen) {
      const std::string path = journalPath(dir, gen);
      if (!fs::exists(path, ec)) {
        if (gen == firstGen) {
          story += "journal-" + std::to_string(gen) +
                   " absent (kill before journal creation); ";
        }
        break;
      }
      journalGen_ = gen;
      const JournalReadResult read = readJournal(path);
      for (const JournalRecord& rec : read.records) {
        switch (rec.kind) {
          case JournalRecordKind::kSubmit: {
            nextId_ = std::max(nextId_, rec.submit.scenarioId + 1);
            for (const JournalLedgerEntry& entry : rec.ledger) {
              applyLedgerEntry(entry, &rec.submit);
            }
            break;
          }
          case JournalRecordKind::kRound: {
            for (const JournalLedgerEntry& entry : rec.ledger) {
              applyLedgerEntry(entry, nullptr);
            }
            for (const RoundParticipant& p : rec.participants) {
              Slot* slot = findSlot(p.scenarioId);
              if (slot != nullptr) slot->epochsDone = p.epochsDone;
            }
            counters_.epochsRun += rec.participants.size();
            round_ = rec.round + 1;
            break;
          }
        }
      }
      rep.replayedRecords += read.records.size();
      if (read.tornTail || read.corrupt) {
        rep.tornTail = read.tornTail;
        rep.lossDetected = true;
        story += "journal-" + std::to_string(gen) + ": " + read.detail + "; ";
        break;
      }
    }
  }

  // 4. Re-execute to the journaled frontier. In-flight scenarios need
  // their simulation state rebuilt (the snapshot only stored the logical
  // position); scenarios that went terminal after the snapshot need their
  // metric history regenerated for session resume. Both re-run their
  // successful epoch prefix -- deterministic, hence bit-identical.
  std::vector<std::pair<Slot*, std::uint64_t>> work;
  for (auto& slot : active_) {
    if (slot->epochsDone > 0) work.push_back({slot.get(), slot->epochsDone});
  }
  for (auto& slot : archive_) {
    const auto it = baselineEpochs.find(slot->id);
    const std::uint64_t baseline = it != baselineEpochs.end() ? it->second : 0;
    if (slot->epochsDone > baseline) {
      work.push_back({slot.get(), slot->epochsDone});
    }
  }
  rep.reExecutedEpochs = reExecuteSlots(work);
  for (const auto& w : work) {
    if (!w.first->stagedReason.empty()) {
      story += "scenario " + std::to_string(w.first->id) + ": " +
               w.first->stagedReason + "; ";
      w.first->stagedReason.clear();
    }
  }

  // Redeliver the retained history: the pre-crash drain cursor was
  // deliberately not journaled (it is client-side state), so delivery is
  // at-least-once across a crash and clients dedup by epoch via session
  // resume.
  for (auto* container : {&active_, &queue_, &archive_}) {
    for (auto& slot : *container) slot->pendingMetrics = slot->history;
  }

  rep.recoveredRound = round_;

  // 5. Loss is ledgered, never silent: one explicit RECOVERED record
  // naming the round frontier the shard degraded to. Clean kills take
  // the other branch -- their lost unsynced tail is regenerated exactly,
  // so the ledger must stay byte-identical to the uninterrupted run.
  if (rep.lossDetected) {
    ServiceLedgerRecord rec;
    rec.round = round_;
    rec.isRecoveryRecord = true;
    rec.recoveredFromRound = round_;
    rec.reason = "RECOVERED: durable history truncated; " + story;
    ledger_.add(std::move(rec));
  }

  // 6. Rotate to a fresh generation so the recovered state (including any
  // RECOVERED record) is immediately durable and the next crash replays
  // from here.
  try {
    rotateDurability(journalGen_ + 1);
  } catch (const fault::StorageError& e) {
    degradeDurability(e);
  }

  rep.detail = story;
  recovery_ = rep;
}

WatchdogStats FleetEngine::watchdogStats() const {
  WatchdogStats w;
  w.alarms = alarms_.load(std::memory_order_acquire);
  w.scenariosFlagged = scenariosFlagged_.load(std::memory_order_acquire);
  return w;
}

void FleetEngine::watchdogLoop() {
  const auto poll = std::chrono::duration<double>(config_.watchdogPollS);
  const std::int64_t deadlineNs =
      static_cast<std::int64_t>(config_.watchdogWallDeadlineS * 1e9);
  std::int64_t lastAlarmedStart = 0;
  while (!stopWatchdog_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const std::int64_t start = roundStartNs_.load(std::memory_order_acquire);
    if (start == 0 || start == lastAlarmedStart) continue;
    if (nowNs() - start < deadlineNs) continue;
    // This round overran its wall deadline: flag every scenario whose
    // epoch is still running; the engine cancels them at the next epoch
    // boundary. Take the engine lock to scan active_ -- if the post-pass
    // already holds it, the round is over by the time we get it and the
    // re-check below sees roundStartNs_ == 0.
    lastAlarmedStart = start;
    std::lock_guard<std::mutex> lock(mutex_);
    if (roundStartNs_.load(std::memory_order_acquire) != start) continue;
    alarms_.fetch_add(1, std::memory_order_acq_rel);
    for (const auto& slot : active_) {
      if (slot->running.load(std::memory_order_acquire)) {
        slot->watchdogFlagged.store(true, std::memory_order_release);
        scenariosFlagged_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }
}

}  // namespace rfp::service
