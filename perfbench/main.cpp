/// \file main.cpp
/// perfbench: the repository benchmark. One workload per invocation:
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>] [--result <file>] [--commit <sha>]
///
/// --trace 0 measures the end-to-end metrics for --seconds with tracing
/// off. --trace 1 runs the traced probes and reports the per-layer metrics.
/// Either way the metric table goes to stdout, the result file (provenance,
/// correct, attempted, failed, checks, notes, and every metric with its
/// unit and sample count) to --result, and the exit code is non-zero when
/// an output check fails. run.py prints the result line from that file.
/// See perfbench/METRICS.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "fleet.h"
#include "gan.h"
#include "layers.h"
#include "report.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".bench_build/results";
  std::string result;  ///< default: <out-dir>/<workload>-seed<n>-{result,trace}.json
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "toy_fleet|paper_fleet|gan_train --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--result FILE] "
               "[--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--out-dir") {
        args.outDir = value;
      } else if (key == "--result") {
        args.result = value;
      } else if (key == "--commit") {
        args.commit = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
  return args;
}

/// Workload parameters; traced runs use the same homes. Each measured pass
/// is under a second of work, so a run has tens of passes to take each
/// round's fastest instance from, and a paper fleet pass runs >= 100
/// rounds.
const std::map<std::string, FleetSpec> kFleets = {
    {"toy_fleet", {kToyScenario, 64, 32, false, 0}},
    {"paper_fleet", {kPaperScenario, 4, 2, false, 0}},
};

/// The durability layers' probe: the toy homes with journal + snapshots,
/// 4 arrivals per round after the first 16.
const FleetSpec kDurableProbe = {kToyScenario, 16, 32, true, 4};

/// Small probes give every traced run every per-layer metric: layers the
/// workload does not reach are timed on the toy fleet / a short GAN run.
constexpr std::size_t kProbeHomes = 16;
constexpr std::size_t kProbeGanSteps = 6;
constexpr std::size_t kGanTraceSteps = 10;

/// Writes the "provenance" object into the object open in \p json.
void stampProvenance(rfp::bench::JsonWriter& json, const Args& args) {
  const char* threadsEnv = std::getenv("RFP_THREADS");
  json.beginObject("provenance")
      .field("workload", args.workload)
      .field("seed", static_cast<unsigned long long>(args.seed))
      .field("trace", args.trace)
      .field("seconds", args.seconds)
      .field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("rfp_threads_env", threadsEnv != nullptr ? threadsEnv : "")
      .field("rfp_threads", rfp::common::ThreadPool::resolveThreadCount());
  rfp::bench::stampKernelProvenance(json)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("git_commit", args.commit)
      .endObject();
}

void traceWorkload(const Args& args, const std::string& scratch,
                   Tracer& tracer, Report& report) {
  FleetSpec toyProbe = kFleets.at("toy_fleet");
  toyProbe.homes = kProbeHomes;
  TraceSummary own;
  const char* scenario = kToyScenario;
  if (args.workload == "gan_train") {
    own = traceGan(args.seed, kGanTraceSteps, args.seconds / 2, tracer,
                   report);
    traceFleet(toyProbe, args.seed, 0.0, scratch, tracer, report);
  } else {
    const FleetSpec& spec = kFleets.at(args.workload);
    scenario = spec.scenarioText;
    own = traceFleet(spec, args.seed, args.seconds / 2, scratch, tracer,
                     report);
    traceGan(args.seed, kProbeGanSteps, 0.0, tracer, report);
  }
  traceDurability(kDurableProbe, args.seed, scratch, tracer, report);
  probeSignal(scenario, tracer, report);
  probeParallelFor(tracer, report);
  probeGemm(args.seed, report);
  report.metric("common.pool_speedup", own.poolSpeedup, "ratio",
                own.repetitions);
  report.metric("trace_overhead_frac", own.overheadFrac, "frac",
                own.repetitions);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parseArgs(argc, argv);
  if (args.workload != "gan_train" && kFleets.count(args.workload) == 0) {
    usage("unknown workload '" + args.workload + "'");
  }
  const std::string stem = args.outDir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  if (args.result.empty()) {
    args.result = stem + (args.trace ? "-trace.json" : "-result.json");
  }
  const std::string scratch =
      args.outDir + "/scratch-" + std::to_string(::getpid());

  Report report;
  int status = 0;
  try {
    fs::create_directories(scratch);
    if (args.trace) {
      Tracer tracer;
      traceWorkload(args, scratch, tracer, report);
      rfp::bench::JsonWriter header;
      header.beginObject();
      stampProvenance(header, args);
      header.endObject();
      if (!tracer.write(stem + "-spans.json", header.str())) {
        throw std::runtime_error("cannot write " + stem + "-spans.json");
      }
    } else if (args.workload == "gan_train") {
      measureGan(args.seed, args.seconds, report);
    } else {
      measureFleet(kFleets.at(args.workload), args.seed, args.seconds,
                   scratch, report);
    }
    rfp::bench::JsonWriter json;
    json.beginObject();
    stampProvenance(json, args);
    report.writeFields(json);
    json.endObject();
    if (!json.writeFile(args.result)) {
      throw std::runtime_error("cannot write " + args.result);
    }
    report.print();
    status = report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return status;
}
