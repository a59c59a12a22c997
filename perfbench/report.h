#pragma once

/// \file report.h
/// Measurement plumbing shared by every perfbench workload: the metric
/// table a run prints, the output checks that decide `correct`, and the
/// span tracer of the traced run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Element-wise minimum over passes of a per-round (or per-step) series:
/// \p minima becomes min(minima, \p series), or \p series when empty. The
/// work of round r is the same in every pass of a run, so its fastest
/// instance is its least disturbed one. Throws when the lengths differ.
void keepMinima(std::vector<double>& minima,
                const std::vector<double>& series);

/// Sizes the global pool: the full pool (ThreadPool::resolveThreadCount(),
/// i.e. RFP_THREADS, else the hardware thread count), or one thread with
/// every job inline.
void useFullPool();
void useOneThread();

/// Peak resident set size of this process [MiB].
double peakRssMb();

/// One reported number with its unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run reports: its metrics, its output checks, and how many
/// operations it attempted and saw fail.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Records an output check; a failed check makes the run incorrect.
  void check(const std::string& what, bool ok);
  void count(std::size_t attempted, std::size_t failed);
  /// Free-form detail line printed and stored with the result file.
  void note(const std::string& key, const std::string& value);

  bool correct() const;

  /// Notes, metric table and checks, for a reader of stdout.
  void print() const;
  /// Writes correct, attempted, failed, notes, checks and metrics (value,
  /// unit, samples) as fields of the object open in \p json.
  void writeFields(rfp::bench::JsonWriter& json) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span recorder of the traced run. A span is one call into a
/// layer's public function, timed from outside; spans of one request
/// (a home, a training step) share its id, and `parent` links a call to
/// the span that caused it. Spans are written out once, at the end.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  Tracer();

  /// Opens a span and returns its index (pass it to end() and as a
  /// child's parent).
  int begin(const char* name, std::uint64_t request, int parent = -1);
  void end(int index);
  /// Adds a span whose bounds were taken elsewhere (e.g. inside a hook).
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             std::uint64_t request, int parent = -1);

  /// Times fn() as one span.
  template <typename Fn>
  decltype(auto) time(const char* name, std::uint64_t request, int parent,
                      Fn&& fn) {
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() { tracer->end(index); }
    } closer{this, begin(name, request, parent)};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }
  double durationUs(const Span& s) const {
    return static_cast<double>(s.endNs - s.startNs) / 1.0e3;
  }
  /// Durations [us] of every span called \p name.
  std::vector<double> durationsUs(const char* name) const;

  bool write(const std::string& path, const std::string& header) const;

 private:
  std::int64_t sinceOrigin(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What a traced workload reports about itself beyond its spans.
struct TraceSummary {
  /// Untraced over traced median 1-thread throughput, minus one.
  double overheadFrac = 0.0;
  /// Median over repetitions of full-pool over 1-thread throughput.
  double poolSpeedup = 0.0;
  std::size_t repetitions = 0;
};

/// Eight hex digits, as output digests are printed.
std::string hex32(std::uint32_t value);

/// The benchmark's input seeds: item \p index of stream \p stream of the
/// workload seed.
inline constexpr std::uint64_t kStreamHome = 1;
inline constexpr std::uint64_t kStreamEngine = 2;
inline constexpr std::uint64_t kStreamGan = 3;
inline constexpr std::uint64_t kStreamGemm = 4;
std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index = 0);

}  // namespace perfbench
