#pragma once

/// \file bench_util.h
/// Shared plumbing for the paper-reproduction benchmarks: table printing,
/// CDF summaries, and a lazily trained conditional GAN shared across the
/// benchmarks that need generated trajectories (Fig. 10c, 11, 12, Table 1).
/// The first benchmark to need the GAN trains it (a few minutes on CPU,
/// with best-FID checkpoint selection) and writes
/// `out/rfprotect_gan_checkpoint.txt` under the working directory; later
/// runs reload it. `out/` is git-ignored so checkpoints never leak into
/// the tree.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cpuid.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gan/trajectory_gan.h"
#include "trajectory/fid.h"
#include "trajectory/human_walk.h"
#include "trajectory/trace.h"

namespace rfp::bench {

inline void printHeader(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '=').c_str());
}

/// Monotonic wall-clock stopwatch for the scaling/throughput benchmarks.
/// Elapsed time is reported in *microseconds as a double* (nanosecond tick
/// under the hood): integer-millisecond reporting would truncate
/// per-frame times under ~1 ms to zero.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Microseconds since construction/reset, fractional.
  double elapsedUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Convenience views of the same double-precision measurement.
  double elapsedMs() const { return elapsedUs() / 1.0e3; }
  double elapsedS() const { return elapsedUs() / 1.0e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Minimal pretty-printing JSON emitter for the BENCH_*.json artifacts, so
/// benchmarks stop hand-formatting JSON with fprintf (mismatched commas,
/// unescaped strings). Usage is strictly structural: beginObject/beginArray
/// and field() calls must nest correctly; no validation beyond that.
class JsonWriter {
 public:
  JsonWriter& beginObject(const char* key = nullptr) {
    open('{', key);
    return *this;
  }
  JsonWriter& endObject() {
    close('}');
    return *this;
  }
  JsonWriter& beginArray(const char* key = nullptr) {
    open('[', key);
    return *this;
  }
  JsonWriter& endArray() {
    close(']');
    return *this;
  }

  JsonWriter& field(const char* key, const std::string& v) {
    item(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  JsonWriter& field(const char* key, const char* v) {
    return field(key, std::string(v));
  }
  JsonWriter& field(const char* key, bool v) {
    item(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  /// Non-finite doubles become null (JSON has no NaN/Inf literals).
  JsonWriter& field(const char* key, double v, int precision = 3) {
    item(key);
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    out_ += buf;
    return *this;
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& field(const char* key, T v) {
    item(key);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& nullField(const char* key) {
    item(key);
    out_ += "null";
    return *this;
  }

  const std::string& str() const { return out_; }

  bool writeFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fwrite(out_.data(), 1, out_.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  void indent() { out_.append(2 * firstAtDepth_.size(), ' '); }
  void item(const char* key) {
    if (!firstAtDepth_.back()) out_ += ',';
    firstAtDepth_.back() = false;
    out_ += '\n';
    indent();
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\": ";
    }
  }
  void open(char c, const char* key) {
    if (!firstAtDepth_.empty()) item(key);
    out_ += c;
    firstAtDepth_.push_back(true);
  }
  void close(char c) {
    const bool empty = firstAtDepth_.back();
    firstAtDepth_.pop_back();
    if (!empty) {
      out_ += '\n';
      indent();
    }
    out_ += c;
    if (firstAtDepth_.empty()) out_ += '\n';
  }

  std::string out_;
  std::vector<char> firstAtDepth_;  ///< "no items emitted yet" per level
};

/// Stamps the standard SIMD-kernel provenance fields into a bench JSON
/// object (DESIGN.md Sec. 13): the active dispatched kernel level and the
/// host's detected CPU feature flags. Every BENCH_*.json carries these so
/// numbers can be interpreted against the level/box that produced them.
/// Call inside an open object.
inline JsonWriter& stampKernelProvenance(JsonWriter& json) {
  json.field("kernel_level",
             rfp::common::simd::kernelLevelName(
                 rfp::common::simd::activeKernelLevel()))
      .field("cpu_features", rfp::common::simd::cpuFeatureString());
  return json;
}

/// Stamps the pool a bench ran with -- `hardware_concurrency`,
/// `rfp_threads_env` (RFP_THREADS as set, "" when unset) and `rfp_threads`
/// (the size a default pool resolves to, the caller included; DESIGN.md
/// Sec. 8), the names perfbench uses -- then the kernel provenance. Every
/// bench_ext_* JSON starts with these. Call inside an open object.
inline JsonWriter& stampRunProvenance(JsonWriter& json) {
  const char* threadsEnv = std::getenv("RFP_THREADS");
  json.field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("rfp_threads_env", threadsEnv != nullptr ? threadsEnv : "")
      .field("rfp_threads", rfp::common::ThreadPool::resolveThreadCount());
  return stampKernelProvenance(json);
}

/// Prints the standard percentile summary used for the Fig. 11 CDFs.
inline void printErrorSummary(const std::string& label,
                              std::vector<double> errors,
                              double unitScale = 1.0,
                              const char* unit = "m") {
  if (errors.empty()) {
    std::printf("  %-28s (no samples)\n", label.c_str());
    return;
  }
  for (double& e : errors) e *= unitScale;
  std::printf(
      "  %-28s median %7.3f %-3s  p75 %7.3f  p90 %7.3f  (n=%zu)\n",
      label.c_str(), rfp::common::median(errors), unit,
      rfp::common::percentile(errors, 75.0),
      rfp::common::percentile(errors, 90.0), errors.size());
}

/// Prints a coarse CDF (the series a plot of Fig. 11 would draw).
inline void printCdf(const std::string& label,
                     const std::vector<double>& errors, double unitScale,
                     const char* unit) {
  std::printf("  CDF of %s [%s]:\n", label.c_str(), unit);
  std::printf("    pct :");
  for (double q : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0}) {
    std::printf(" %6.0f%%", q);
  }
  std::printf("\n    val :");
  for (double q : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0}) {
    std::printf(" %7.3f",
                rfp::common::percentile(errors, q) * unitScale);
  }
  std::printf("\n");
}

/// The GAN configuration every benchmark shares (CPU-scaled version of the
/// paper's architecture; see DESIGN.md).
inline gan::GeneratorConfig benchGeneratorConfig() {
  gan::GeneratorConfig g;
  g.hiddenSize = 32;
  g.noiseDim = 16;
  g.perStepNoiseDim = 8;
  g.labelEmbeddingDim = 8;
  g.traceLength = rfp::common::kTracePoints - 1;  // step space
  return g;
}

inline gan::DiscriminatorConfig benchDiscriminatorConfig() {
  gan::DiscriminatorConfig d;
  d.hiddenSize = 32;
  d.featureSize = 24;
  d.labelEmbeddingDim = 8;
  d.traceLength = rfp::common::kTracePoints - 1;
  return d;
}

/// A trained GAN plus the dataset it was trained on.
struct GanBundle {
  std::unique_ptr<gan::TrajectoryGan> gan;
  std::vector<trajectory::Trace> dataset;        ///< raw (room coords)
  std::vector<trajectory::Trace> centeredReal;   ///< centered copies
  std::vector<double> labelHistogram;

  std::vector<trajectory::Trace> sampleFakes(std::size_t count,
                                             rfp::common::Rng& rng) const {
    return gan->sample(count, labelHistogram, rng);
  }

  /// Samples fakes whose motion range fits the deployment room (the paper
  /// spoofs trajectories that fit its office/home; a trace wider than the
  /// room cannot be walked there by a human either). Oversamples and
  /// filters; falls back to the smallest candidates if needed.
  std::vector<trajectory::Trace> sampleFittingFakes(
      std::size_t count, double maxMotionRangeM,
      rfp::common::Rng& rng) const {
    std::vector<trajectory::Trace> out;
    for (int round = 0; round < 8 && out.size() < count; ++round) {
      for (auto& t : gan->sample(count, labelHistogram, rng)) {
        if (trajectory::motionRange(t) <= maxMotionRangeM &&
            out.size() < count) {
          out.push_back(std::move(t));
        }
      }
    }
    // Fallback: top up with whatever comes (rare).
    while (out.size() < count) {
      auto extra = gan->sample(1, labelHistogram, rng);
      out.push_back(std::move(extra.front()));
    }
    return out;
  }
};

inline constexpr const char* kGanCheckpointPath =
    "out/rfprotect_gan_checkpoint.txt";

/// Loads the shared GAN checkpoint or trains one (with best-FID round
/// selection). Deterministic: seeded independently of the caller's RNG.
inline GanBundle sharedGan(std::size_t datasetSize = 600,
                           std::size_t trainRounds = 4,
                           std::size_t epochsPerRound = 10) {
  GanBundle bundle;
  rfp::common::Rng rng(42);

  trajectory::HumanWalkModel walker;
  bundle.dataset = walker.dataset(datasetSize, rng);
  bundle.centeredReal.reserve(bundle.dataset.size());
  for (const auto& t : bundle.dataset) {
    bundle.centeredReal.push_back(trajectory::centered(t));
  }
  bundle.labelHistogram = gan::TrajectoryGan::labelHistogram(
      bundle.dataset, rfp::common::kRangeClasses);

  gan::GanTrainingConfig tc;
  tc.batchSize = 32;
  tc.epochs = epochsPerRound;
  bundle.gan = std::make_unique<gan::TrajectoryGan>(
      benchGeneratorConfig(), benchDiscriminatorConfig(), tc, rng);

  if (std::ifstream(kGanCheckpointPath).good()) {
    std::printf("[gan] loading shared checkpoint %s\n", kGanCheckpointPath);
    bundle.gan->load(kGanCheckpointPath);
    return bundle;
  }

  std::printf(
      "[gan] no checkpoint found; training %zu x %zu epochs "
      "(one-time, shared by all benchmarks)...\n",
      trainRounds, epochsPerRound);
  // The atomic writer renames into place but does not create parents.
  std::filesystem::create_directories(
      std::filesystem::path(kGanCheckpointPath).parent_path());
  double bestFid = 1e300;
  for (std::size_t round = 0; round < trainRounds; ++round) {
    bundle.gan->train(bundle.dataset, rng);
    rfp::common::Rng evalRng(1234);
    const auto fake = bundle.gan->sample(200, bundle.labelHistogram, evalRng);
    const auto fid =
        trajectory::normalizedFidScores(bundle.centeredReal, {fake});
    std::printf("[gan] round %zu: normalized FID %.1f\n", round + 1,
                fid.normalized[0]);
    if (fid.normalized[0] < bestFid) {
      bestFid = fid.normalized[0];
      bundle.gan->save(kGanCheckpointPath);
    }
  }
  std::printf("[gan] kept best checkpoint (normalized FID %.1f)\n", bestFid);
  bundle.gan->load(kGanCheckpointPath);
  return bundle;
}

}  // namespace rfp::bench
