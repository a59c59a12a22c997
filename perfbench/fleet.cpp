#include "fleet.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <utility>

#include "common/crc32.h"
#include "common/det_hash.h"
#include "common/stats.h"
#include "layers.h"
#include "service/journal.h"
#include "service/scenario_job.h"

namespace perfbench {

namespace fs = std::filesystem;
using rfp::common::mean;
using rfp::common::median;
using rfp::common::percentile;
using rfp::service::FleetEngine;

const char* const kToyScenario = R"(
room.name = fleet-home
radar.sample_rate = 16000
radar.antennas = 3
panel.count = 4
)";

const char* const kPaperScenario = R"(
room.name = office
room.width = 10
room.height = 6.6
room.wall_reflectivity = 0.45
clutter = 2.0 6.2 1.6
clutter = 4.5 6.2 1.8
clutter = 7.0 6.2 1.6
clutter = 3.0 2.0 0.6
clutter = 6.5 3.5 0.5
clutter = 8.5 1.5 0.6
multipath.loss = 0.65
)";

FleetInputs makeFleetInputs(const FleetSpec& spec, std::uint64_t seed,
                            std::size_t homes) {
  FleetInputs in;
  in.engineSeed = inputSeed(seed, kStreamEngine);
  for (std::size_t i = 0; i < homes; ++i) {
    rfp::service::ScenarioSubmission s;
    s.name = "home-" + std::to_string(i);
    s.scenarioText = spec.scenarioText;
    s.seed = inputSeed(seed, kStreamHome, i);
    in.submissions.push_back(std::move(s));
  }
  return in;
}

namespace {

template <typename T>
void appendRaw(std::uint32_t& crc, const T& value) {
  crc = rfp::common::crc32Update(crc, &value, sizeof(value));
}

/// CRC32 over the service ledger and every scenario's metric stream, field
/// by field: the byte-identity surface of DESIGN.md Sec. 8.
std::uint32_t outputDigest(const PassResult& pass) {
  std::uint32_t crc = rfp::common::crc32Update(
      rfp::common::kCrc32Init, pass.ledger.data(), pass.ledger.size());
  for (const auto& stream : pass.streams) {
    for (const rfp::service::EpochMetrics& m : stream) {
      appendRaw(crc, m.epoch);
      appendRaw(crc, m.framesSimulated);
      appendRaw(crc, m.framesTotal);
      appendRaw(crc, m.framesDetected);
      appendRaw(crc, m.sumDistanceErrorM);
      appendRaw(crc, m.sumAngleErrorDeg);
    }
  }
  return crc ^ 0xffffffffu;
}

/// The same values, bit for bit (the epoch index aside).
bool sameMetrics(const std::vector<rfp::service::EpochMetrics>& a,
                 const std::vector<rfp::service::EpochMetrics>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const rfp::service::EpochMetrics& x,
         const rfp::service::EpochMetrics& y) {
        return x.framesSimulated == y.framesSimulated &&
               x.framesTotal == y.framesTotal &&
               x.framesDetected == y.framesDetected &&
               std::bit_cast<std::uint64_t>(x.sumDistanceErrorM) ==
                   std::bit_cast<std::uint64_t>(y.sumDistanceErrorM) &&
               std::bit_cast<std::uint64_t>(x.sumAngleErrorDeg) ==
                   std::bit_cast<std::uint64_t>(y.sumAngleErrorDeg);
      });
}

/// The job seed FleetEngine::submit derives for scenario \p id: the
/// engine seed hashed with the id on stream 41, xor the submission's
/// seed. traceFleet checks that jobs built on it reproduce the engine's
/// metric streams.
std::uint64_t engineJobSeed(std::uint64_t engineSeed, std::uint64_t id,
                            std::uint64_t submissionSeed) {
  return rfp::common::hashBits(engineSeed, id, 41) ^ submissionSeed;
}

double total(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

rfp::service::FleetServiceConfig engineConfig(const FleetSpec& spec,
                                              const FleetInputs& inputs,
                                              const std::string& durableDir) {
  rfp::service::FleetServiceConfig config;
  config.maxActive = kMaxActive;
  config.queueCapacity = inputs.submissions.size();  // nothing sheds
  config.epochFrames = spec.epochFrames;
  config.seed = inputs.engineSeed;
  if (spec.durable) config.durability.dir = durableDir;
  return config;
}

double rate(const PassResult& p) {
  return static_cast<double>(p.completed) / p.runS;
}

std::uint64_t dirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Settles the pool, the steering/twiddle caches and the allocator before
/// anything is timed.
void warmUp(const FleetSpec& spec, std::uint64_t seed,
            const PassOptions& options) {
  runFleetPass(spec, makeFleetInputs(spec, seed, 4), options);
}

}  // namespace

PassResult runFleetPass(const FleetSpec& spec, const FleetInputs& inputs,
                        const PassOptions& options) {
  const auto config = engineConfig(spec, inputs, options.durableDir);
  Tracer* tracer = options.tracer;
  std::vector<rfp::service::ScenarioSubmission> pending = inputs.submissions;
  const std::size_t n = pending.size();
  const std::size_t upFront =
      spec.submitsPerRound == 0 ? n : std::min(n, kMaxActive);

  PassResult out;
  std::size_t next = 0;
  const auto submitUpTo = [&](FleetEngine& engine, std::size_t end) {
    for (; next < end; ++next) {
      auto submitOne = [&] { return engine.submit(std::move(pending[next])); };
      const auto outcome = tracer != nullptr
                               ? tracer->time("service.submit", next, -1,
                                              submitOne)
                               : submitOne();
      out.ids.push_back(outcome.scenarioId);
    }
  };

  const auto setupStart = Clock::now();
  auto engine = std::make_unique<FleetEngine>(config, nullptr, options.injector);
  submitUpTo(*engine, upFront);
  out.setupS = secondsSince(setupStart);

  std::size_t crashIndex = 0;
  const auto runStart = Clock::now();
  while (next < n || !engine->idle()) {
    if (spec.submitsPerRound > 0) {
      submitUpTo(*engine,
                 std::min<std::size_t>(
                     n, upFront + spec.submitsPerRound * engine->round()));
    }
    const auto stepStart = Clock::now();
    if (tracer != nullptr) {
      tracer->time("service.step", engine->round(), -1,
                   [&] { return engine->step(); });
    } else {
      engine->step();
    }
    out.roundMs.push_back(secondsSince(stepStart) * 1.0e3);

    if (crashIndex < options.crashAfterRounds.size() &&
        engine->round() == options.crashAfterRounds[crashIndex]) {
      ++crashIndex;
      engine.reset();  // the kill: a clean stop between rounds
      const auto recoverStart = Clock::now();
      auto recoverOne = [&] {
        return FleetEngine::recover(config, nullptr, options.injector);
      };
      engine = tracer != nullptr
                   ? tracer->time("service.recover", crashIndex, -1, recoverOne)
                   : recoverOne();
      out.recoverMs.push_back(secondsSince(recoverStart) * 1.0e3);
      const auto& report = engine->recoveryReport();
      out.lossDetected = out.lossDetected || report.lossDetected;
      out.tornTail = out.tornTail || report.tornTail;
      out.replayedRecords.push_back(
          static_cast<double>(report.replayedRecords));
      out.reExecutedEpochs.push_back(
          static_cast<double>(report.reExecutedEpochs));
    }
  }
  out.runS = secondsSince(runStart);

  const auto counters = engine->counters();
  out.rounds = engine->round();
  out.submitted = n;
  out.completed = counters.completed;
  out.failed =
      counters.failed + counters.shed + counters.rejected + counters.cancelled;
  out.ledger = engine->ledger().serialize();
  if (options.crashAfterRounds.empty()) {
    for (const std::uint64_t id : out.ids) {
      out.streams.push_back(engine->metricsSince(id, 0));
    }
  }
  out.digest = outputDigest(out);
  return out;
}

void measureFleet(const FleetSpec& spec, std::uint64_t seed, double seconds,
                  const std::string& scratchDir, Report& report) {
  const auto start = Clock::now();
  const FleetInputs inputs = makeFleetInputs(spec, seed, spec.homes);
  PassOptions options;
  options.durableDir = scratchDir + "/durable";

  useOneThread();
  warmUp(spec, seed, options);

  // Interference only slows a round: the fastest instance of each round
  // over the run's passes is its least disturbed one (see METRICS.md).
  std::vector<double> setupS, rates, roundMs, minRoundMs;
  std::set<std::uint32_t> digests;
  bool allCompleted = true;
  double lastRep = 0.0;
  do {
    const auto repStart = Clock::now();
    const PassResult one = runFleetPass(spec, inputs, options);
    setupS.push_back(one.setupS);
    digests.insert(one.digest);
    allCompleted =
        allCompleted && one.completed == one.submitted && one.failed == 0;
    report.count(one.submitted, one.failed);
    rates.push_back(rate(one));
    roundMs.insert(roundMs.end(), one.roundMs.begin(), one.roundMs.end());
    keepMinima(minRoundMs, one.roundMs);
    lastRep = secondsSince(repStart);
  } while (secondsSince(start) + 2.0 * lastRep <= seconds);
  const double peakRss = peakRssMb();

  // One pass at the full pool, untimed and after the peak RSS is read: its
  // output must equal the 1-thread passes' (DESIGN.md Sec. 8).
  useFullPool();
  const PassResult pool = runFleetPass(spec, inputs, options);
  useOneThread();
  digests.insert(pool.digest);
  allCompleted =
      allCompleted && pool.completed == pool.submitted && pool.failed == 0;
  report.count(pool.submitted, pool.failed);

  const std::size_t passes = rates.size();
  report.note("passes", std::to_string(passes) +
                            " x 1 thread, then 1 untimed full-pool pass");
  report.note("rounds_per_pass", std::to_string(pool.rounds));
  report.note("output_digest", hex32(pool.digest));
  report.note("throughput_pool_per_s",
              std::to_string(rate(pool)) + " (one pass, untimed)");
  report.note("throughput_1t_median_per_s", std::to_string(median(rates)));
  report.note("round_p90_1t_ms", std::to_string(percentile(roundMs, 90.0)) +
                                     " (every pass, n=" +
                                     std::to_string(roundMs.size()) + ")");
  report.metric("throughput_1t_per_s",
                static_cast<double>(spec.homes) / (total(minRoundMs) / 1.0e3),
                "1/s", passes);
  report.metric("round_p50_1t_ms", median(minRoundMs), "ms",
                minRoundMs.size());
  report.metric("setup_s", median(setupS), "s", setupS.size());
  report.metric("peak_rss_mb", peakRss, "MiB", 1);

  report.check("every submitted scenario completed (none failed, shed, "
               "rejected or cancelled)",
               allCompleted);
  report.check("ledger + metric streams byte-identical at 1 thread and full "
               "pool (CRC32 " + hex32(pool.digest) + ")",
               digests.size() == 1);
}

TraceSummary traceFleet(const FleetSpec& spec, std::uint64_t seed,
                        double pairSeconds, const std::string& scratchDir,
                        Tracer& tracer, Report& report) {
  const std::size_t homes = spec.homes;
  const FleetInputs inputs = makeFleetInputs(spec, seed, homes);
  PassOptions options;
  options.durableDir = scratchDir + "/durable";

  // For \p pairSeconds, each repetition runs an untraced and a traced pass
  // at one thread and an untraced pass at the full pool.
  useOneThread();
  warmUp(spec, seed, options);
  PassOptions traced = options;
  traced.tracer = &tracer;
  std::vector<double> untracedRates, tracedRates, speedups;
  std::set<std::uint32_t> digests;
  PassResult one;
  const auto start = Clock::now();
  double lastRep = 0.0;
  do {
    const auto repStart = Clock::now();
    useOneThread();
    one = runFleetPass(spec, inputs, options);
    const PassResult tracedOne = runFleetPass(spec, inputs, traced);
    useFullPool();
    const PassResult pool = runFleetPass(spec, inputs, options);
    untracedRates.push_back(rate(one));
    tracedRates.push_back(rate(tracedOne));
    speedups.push_back(rate(pool) / rate(one));
    for (const PassResult* p :
         std::initializer_list<const PassResult*>{&one, &tracedOne, &pool}) {
      digests.insert(p->digest);
      report.count(p->submitted, p->failed);
    }
    lastRep = secondsSince(repStart);
  } while (secondsSince(start) + lastRep <= pairSeconds);
  useOneThread();
  const TraceSummary summary{
      median(untracedRates) / median(tracedRates) - 1.0, median(speedups),
      speedups.size()};

  const auto stepUs = tracer.durationsUs("service.step");
  const auto submitUs = tracer.durationsUs("service.submit");
  report.metric("service.step_ms", median(stepUs) / 1.0e3, "ms",
                stepUs.size());
  report.metric("service.submit_us", median(submitUs), "us", submitUs.size());

  // The bare scenario epochs of the last untraced 1-thread pass, run
  // serially in rounds of maxActive (no service), on the jobs the engine
  // built (the same job seeds).
  std::vector<std::uint64_t> jobSeeds;
  for (std::size_t i = 0; i < homes; ++i) {
    jobSeeds.push_back(engineJobSeed(inputs.engineSeed, one.ids[i],
                                     inputs.submissions[i].seed));
  }
  struct Home {
    std::unique_ptr<rfp::service::ScenarioJob> job;
    std::size_t index = 0;
  };
  std::vector<Home> active;
  std::vector<std::vector<rfp::service::EpochMetrics>> streams(homes);
  std::vector<double> epochUs, imbalance;
  std::size_t admitted = 0;
  std::size_t frameTotal = 0;
  const std::uint64_t budget =
      rfp::service::FleetServiceConfig{}.epochWorkBudget;
  std::uint64_t round = 0;
  while (admitted < homes || !active.empty()) {
    while (active.size() < kMaxActive && admitted < homes) {
      const auto& s = inputs.submissions[admitted];
      active.push_back({rfp::service::makeSpoofScenarioJob(
                            s.scenarioText, s.name, jobSeeds[admitted],
                            spec.epochFrames),
                        admitted});
      ++admitted;
    }
    const int roundSpan = tracer.begin("service.round_1t", round++);
    std::vector<double> roundEpochs;
    for (Home& h : active) {
      rfp::service::EpochContext ctx(budget);
      streams[h.index].push_back(tracer.time(
          "service.epoch", h.index, roundSpan,
          [&] { return h.job->runEpoch(ctx); }));
      roundEpochs.push_back(tracer.durationUs(tracer.spans().back()));
      frameTotal += streams[h.index].back().framesSimulated;
    }
    tracer.end(roundSpan);
    epochUs.insert(epochUs.end(), roundEpochs.begin(), roundEpochs.end());
    if (roundEpochs.size() > 1) {
      imbalance.push_back(
          *std::max_element(roundEpochs.begin(), roundEpochs.end()) /
          mean(roundEpochs));
    }
    std::erase_if(active, [](const Home& h) { return h.job->done(); });
  }
  const double epochTotalUs = total(epochUs);
  report.metric("service.epoch_ms", median(epochUs) / 1.0e3, "ms",
                epochUs.size());
  report.metric("service.epoch_imbalance", median(imbalance), "ratio",
                imbalance.size());
  report.metric("service.overhead_frac",
                1.0 - epochTotalUs / (total(one.roundMs) * 1.0e3), "frac",
                one.roundMs.size());

  // Frame layers, replayed call by call on the first homes' job seeds.
  const std::size_t replayHomes = std::min<std::size_t>(homes, 16);
  const FrameReplay replay = replayFrames(
      spec.scenarioText,
      std::vector<std::uint64_t>(jobSeeds.begin(),
                                 jobSeeds.begin() + replayHomes),
      spec.epochFrames, tracer, report);

  const double frameUs = epochTotalUs / static_cast<double>(frameTotal);
  report.metric("core.frame_us", frameUs, "us", frameTotal);
  report.metric("core.other_us",
                frameUs - replay.layerUs / static_cast<double>(replay.frames),
                "us", replay.frames);
  bool serialIsEngine = true;
  for (std::size_t i = 0; i < homes; ++i) {
    serialIsEngine = serialIsEngine && sameMetrics(streams[i], one.streams[i]);
  }
  bool replayIsSerial = true;
  for (std::size_t i = 0; i < replayHomes; ++i) {
    replayIsSerial =
        replayIsSerial && sameMetrics(replay.streams[i], streams[i]);
  }
  report.check("serial runEpoch on the engine's job seeds reproduces the "
               "engine's metric streams",
               serialIsEngine);
  report.check("replayed frame loop reproduces runEpoch's per-epoch frames, "
               "detections and summed errors bit for bit",
               replayIsSerial);
  report.check("traced passes' output byte-identical to untraced 1-thread "
               "and full-pool passes",
               digests.size() == 1);
  return summary;
}

void traceDurability(const FleetSpec& spec, std::uint64_t seed,
                     const std::string& scratchDir, Tracer& tracer,
                     Report& report) {
  const FleetInputs inputs = makeFleetInputs(spec, seed, spec.homes);
  rfp::fault::StorageFaultInjector injector;  // counts ops, never fires
  PassOptions options;
  options.durableDir = scratchDir + "/durable-trace";
  options.injector = &injector;

  useOneThread();
  const PassResult full = runFleetPass(spec, inputs, options);
  report.count(full.submitted, full.failed);
  report.metric("service.storage_ops", static_cast<double>(injector.opCount()),
                "count", 1);
  report.metric("service.durable_bytes",
                static_cast<double>(dirBytes(options.durableDir)), "bytes", 1);

  // The journal generations left on disk, replayed through a standalone
  // writer: one append and one fsync per record.
  std::vector<std::string> journals;
  for (const auto& entry : fs::directory_iterator(options.durableDir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0) journals.push_back(entry.path().string());
  }
  std::sort(journals.begin(), journals.end());
  std::vector<rfp::service::JournalRecord> records;
  for (const std::string& path : journals) {
    auto read = rfp::service::readJournal(path);
    records.insert(records.end(), read.records.begin(), read.records.end());
  }
  report.metric("service.journal_records", static_cast<double>(records.size()),
                "count", journals.size());
  const std::string replayDir = scratchDir + "/journal-replay";
  fs::create_directories(replayDir);
  {
    rfp::service::JournalWriter writer(replayDir, 0, /*truncate=*/true,
                                       nullptr);
    for (std::size_t i = 0; i < records.size(); ++i) {
      tracer.time("service.journal_append", i, -1,
                  [&] { writer.append(records[i]); });
      tracer.time("service.journal_sync", i, -1, [&] { writer.sync(); });
    }
  }
  const auto appendUs = tracer.durationsUs("service.journal_append");
  const auto syncUs = tracer.durationsUs("service.journal_sync");
  report.metric("service.journal_append_us", median(appendUs), "us",
                appendUs.size());
  report.metric("service.journal_sync_us", median(syncUs), "us",
                syncUs.size());

  PassOptions crash;
  crash.durableDir = options.durableDir;
  crash.tracer = &tracer;
  crash.crashAfterRounds = {full.rounds / 4, full.rounds / 2,
                            3 * full.rounds / 4};
  const PassResult recovered = runFleetPass(spec, inputs, crash);
  report.metric("service.recover_ms", median(recovered.recoverMs), "ms",
                recovered.recoverMs.size());
  report.metric("service.recover_replayed", median(recovered.replayedRecords),
                "count", recovered.replayedRecords.size());
  report.metric("service.recover_reexec_epochs",
                median(recovered.reExecutedEpochs), "count",
                recovered.reExecutedEpochs.size());
  report.check("traced recovery: ledger byte-identical to the uninterrupted "
               "run, no loss detected",
               recovered.ledger == full.ledger && !recovered.lossDetected &&
                   !recovered.tornTail);
}

}  // namespace perfbench
