#include "common/cpuid.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace rfp::common::simd {

namespace {

CpuFeatures detectCpuFeatures() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  // x86-64 baseline guarantees SSE2; everything wider is queried through
  // the compiler's cpuid/xgetbv helper (checks OS XSAVE support too, so
  // "avx2" is only reported when ymm state is actually usable).
  f.sse2 = true;
#if defined(__GNUC__) || defined(__clang__)
  __builtin_cpu_init();
  f.avx = __builtin_cpu_supports("avx") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
#endif
#endif
  return f;
}

/// Resolves the startup level once: the RFP_KERNEL env var, else auto.
/// Prints one-time stderr notes for unrecognized or unsupported requests
/// (loud fallback, never a crash).
KernelLevel resolveStartupLevel() {
  const char* request = std::getenv("RFP_KERNEL");
  const KernelResolution res = resolveKernelLevel(request, cpuFeatures());
  if (res.requestUnrecognized) {
    std::fprintf(stderr,
                 "[rfp] RFP_KERNEL=\"%s\" not recognized (want sse2|avx2|"
                 "avx512|auto); using auto -> %s\n",
                 request, kernelLevelName(res.level));
  } else if (res.requestedUnsupported) {
    std::fprintf(stderr,
                 "[rfp] RFP_KERNEL=\"%s\" exceeds this CPU's features (%s); "
                 "falling back to %s\n",
                 request, cpuFeatureString().c_str(),
                 kernelLevelName(res.level));
  }
  return res.level;
}

/// The process-wide level cell. -1 = not yet resolved; the first
/// activeKernelLevel() call resolves and publishes it. Relaxed ordering
/// suffices: kernel selection is a pure performance/rounding-regime
/// switch and the resolved value never changes concurrently with use
/// (setActiveKernelLevel is a test hook with the same discipline as
/// setGemmKernel).
std::atomic<int> g_activeLevel{-1};

}  // namespace

const char* kernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kSse2:
      return "sse2";
    case KernelLevel::kAvx2Fma:
      return "avx2_fma";
    case KernelLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const CpuFeatures& cpuFeatures() {
  static const CpuFeatures f = detectCpuFeatures();
  return f;
}

std::string cpuFeatureString() {
  const CpuFeatures& f = cpuFeatures();
  std::string out;
  const auto add = [&out](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(f.sse2, "sse2");
  add(f.avx, "avx");
  add(f.fma, "fma");
  add(f.avx2, "avx2");
  add(f.avx512f, "avx512f");
  if (out.empty()) out = "none";
  return out;
}

KernelLevel maxSupportedLevel(const CpuFeatures& f) {
  if (f.avx512f) return KernelLevel::kAvx512;
  if (f.avx2 && f.fma) return KernelLevel::kAvx2Fma;
  return KernelLevel::kSse2;
}

KernelResolution resolveKernelLevel(const char* request,
                                    const CpuFeatures& f) {
  KernelResolution res;
  const KernelLevel widest = maxSupportedLevel(f);
  if (request == nullptr || request[0] == '\0' ||
      std::strcmp(request, "auto") == 0) {
    res.level = widest;
    return res;
  }
  KernelLevel wanted;
  if (std::strcmp(request, "sse2") == 0 ||
      std::strcmp(request, "scalar") == 0) {
    wanted = KernelLevel::kSse2;
  } else if (std::strcmp(request, "avx2") == 0 ||
             std::strcmp(request, "avx2_fma") == 0) {
    wanted = KernelLevel::kAvx2Fma;
  } else if (std::strcmp(request, "avx512") == 0) {
    wanted = KernelLevel::kAvx512;
  } else {
    res.requestUnrecognized = true;
    res.level = widest;
    return res;
  }
  if (static_cast<int>(wanted) > static_cast<int>(widest)) {
    res.requestedUnsupported = true;
    res.level = widest;
    return res;
  }
  res.level = wanted;
  return res;
}

KernelLevel activeKernelLevel() {
  int level = g_activeLevel.load(std::memory_order_relaxed);
  if (level >= 0) return static_cast<KernelLevel>(level);
  const KernelLevel resolved = resolveStartupLevel();
  // First resolver wins; racing first calls resolve identical values
  // (same env, same CPU), so the exchange result is equivalent either way.
  int expected = -1;
  g_activeLevel.compare_exchange_strong(expected,
                                        static_cast<int>(resolved),
                                        std::memory_order_relaxed);
  return static_cast<KernelLevel>(g_activeLevel.load(
      std::memory_order_relaxed));
}

void setActiveKernelLevel(KernelLevel level) {
  if (static_cast<int>(level) >
      static_cast<int>(maxSupportedLevel(cpuFeatures()))) {
    throw std::invalid_argument(
        std::string("setActiveKernelLevel: level ") +
        kernelLevelName(level) + " unsupported on this CPU (" +
        cpuFeatureString() + ")");
  }
  g_activeLevel.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::vector<KernelLevel> availableKernelLevels() {
  std::vector<KernelLevel> levels{KernelLevel::kSse2};
  const KernelLevel widest = maxSupportedLevel(cpuFeatures());
  if (static_cast<int>(widest) >= static_cast<int>(KernelLevel::kAvx2Fma)) {
    levels.push_back(KernelLevel::kAvx2Fma);
  }
  if (widest == KernelLevel::kAvx512) {
    levels.push_back(KernelLevel::kAvx512);
  }
  return levels;
}

}  // namespace rfp::common::simd
