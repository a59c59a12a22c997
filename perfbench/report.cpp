#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/det_hash.h"
#include "common/thread_pool.h"

namespace perfbench {

void useFullPool() {
  rfp::common::ThreadPool::setGlobalThreads(
      rfp::common::ThreadPool::resolveThreadCount());
}
void useOneThread() { rfp::common::ThreadPool::setGlobalThreads(1); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void keepMinima(std::vector<double>& minima,
                const std::vector<double>& series) {
  if (minima.empty()) {
    minima = series;
    return;
  }
  if (minima.size() != series.size()) {
    throw std::runtime_error("passes of one run differ in round count");
  }
  for (std::size_t i = 0; i < minima.size(); ++i) {
    minima[i] = std::min(minima[i], series[i]);
  }
}

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

std::uint64_t inputSeed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t index) {
  return rfp::common::hashBits(seed, index, stream);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::check(const std::string& what, bool ok) {
  checks_.emplace_back(what, ok);
}

void Report::count(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const auto& [what, ok] : checks_) {
    if (!ok) return false;
  }
  return true;
}

void Report::print() const {
  for (const auto& [key, value] : notes_) {
    std::printf("  %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %16.6g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const auto& [what, ok] : checks_) {
    std::printf("  check %-60s %s\n", what.c_str(), ok ? "holds" : "VIOLATED");
  }
  std::printf("  attempted %zu  failed %zu  failed_frac %.6g\n", attempted_,
              failed_,
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0);
  std::fflush(stdout);
}

void Report::writeFields(rfp::bench::JsonWriter& json) const {
  json.field("correct", correct())
      .field("attempted", attempted_)
      .field("failed", failed_);
  json.beginObject("notes");
  for (const auto& [key, value] : notes_) json.field(key.c_str(), value);
  json.endObject().beginObject("checks");
  for (const auto& [what, ok] : checks_) json.field(what.c_str(), ok);
  json.endObject().beginObject("metrics");
  for (const Metric& m : metrics_) {
    // Fixed-point with 15 decimals: every digit a timing carries.
    json.beginObject(m.name.c_str())
        .field("value", m.value, 15)
        .field("unit", m.unit)
        .field("samples", m.samples)
        .endObject();
  }
  json.endObject();
}

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::sinceOrigin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::begin(const char* name, std::uint64_t request, int parent) {
  const auto now = Clock::now();
  return record(name, now, now, request, parent);
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].endNs = sinceOrigin(Clock::now());
}

int Tracer::record(const char* name, Clock::time_point start,
                   Clock::time_point end, std::uint64_t request, int parent) {
  spans_.push_back({name, sinceOrigin(start), sinceOrigin(end), parent,
                    request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::durationsUs(const char* name) const {
  const std::string wanted(name);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (wanted == s.name) out.push_back(durationUs(s));
  }
  return out;
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run\": %s,\n \"fields\": [\"name\", \"start_ns\", "
                  "\"end_ns\", \"parent\", \"request\"],\n \"spans\": [\n",
               header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  [\"%s\", %lld, %lld, %d, %llu]%s\n", s.name,
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
