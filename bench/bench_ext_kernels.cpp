/// \file bench_ext_kernels.cpp
/// Sweep of the cpuid-dispatched SIMD kernel family (DESIGN.md Sec. 13):
/// for every ISA level this host can execute (sse2 / avx2_fma / avx512,
/// forced via setActiveKernelLevel) it measures
///
///   - GEMM GFLOP/s of the tiled kernel (single thread, one cube and one
///     GAN-shaped product),
///   - range-FFT transforms/s (the butterfly kernel family),
///   - windowed range FFTs/s at paper size (500 samples, Hann window,
///     zero-padded to 1024: signal::fftWindowedInto),
///   - Eq. 2 beamforming maps/s at paper size (227 rows x 181 angles x 7
///     antennas on the paper processor's steering matrix, one call per
///     map as Processor runs it),
///   - counter-based AWGN samples/s on one paper-radar frame (7 antennas
///     x 500 samples, the noise kernel family),
///   - tone setups/s, the (tone, antenna) chains one setup call builds
///     for a toy frame's tones (10 tones x 3 antennas),
///   - tone rows/s of the chains kernel at paper size (19 chains x 500
///     samples x 7 antennas) and toy size (13 chains x 8 samples x 3
///     antennas), their tone setup included,
///   - end-to-end radar frames/s (Frontend::synthesize + Processor::process,
///     i.e. the tone-synthesis and Eq. 2 beamforming kernels together),
///   - peak-detection maps/s over office range-angle maps of the paper
///     radar (PeakDetector::detectInto, the map-scan kernel family), with
///     the count of sampled noise-floor brackets that missed the median,
///   - end-to-end conditional-GAN training steps/s,
///
/// and re-checks each level's bit-identity contract (gemm output
/// memcmp-equal to referenceGemmForLevel, the windowed FFTs memcmp-equal
/// to copy + applyWindow + zero fill + bit reversal + the level's
/// reference stage passes, the beamforming map memcmp-equal to
/// beamformRowsScalar / beamformRowsFmaRef, the noise frame memcmp-equal
/// to awgnAccumScalar / awgnAccumFmaRef, the tone setup's chains at 0-17
/// tones memcmp-equal to the seed expressions (sse2) or toneSetupFmaRef
/// (FMA levels), the tone rows memcmp-equal to
/// the level's single-chain loop run chain after chain, the detection
/// maps' noise floors and candidate lists memcmp-equal to the sse2 run's)
/// so the sweep doubles as a cheap determinism gate. The checks run once
/// per level. The timings run in five rounds, each sweeping every level
/// in turn, and every column reports its median with the min and max of
/// the rounds: one sweep of a loaded host swings by tens of percent.
/// Emits `BENCH_kernels.json` with the detected CPU feature flags; on a
/// host without AVX2+FMA only the sse2 row is produced (the JSON records
/// that explicitly so results from such a box are not misread as a
/// regression). `--smoke` is the CI variant: one round of tiny
/// workloads, non-zero exit if any bit-identity check fails.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/constants.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/vec2.h"
#include "core/eavesdropper.h"
#include "core/harness.h"
#include "core/rfprotect_system.h"
#include "core/scenario.h"
#include "env/environment.h"
#include "env/scatterer.h"
#include "gan/trajectory_gan.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "radar/frontend.h"
#include "radar/processor.h"
#include "radar/simd_kernels.h"
#include "signal/fft.h"
#include "signal/fft_kernels.h"
#include "signal/noise_kernels.h"
#include "signal/window.h"
#include "tracking/detection.h"
#include "trajectory/human_walk.h"

namespace {

using namespace rfp;
using common::simd::KernelLevel;
using linalg::Matrix;

Matrix randomMatrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// One round's timings at one level (all at the forced kernel level).
struct Timings {
  double gemmGflopsCube = 0.0;    ///< 256^3 (smoke: 64^3), 1 thread
  double gemmGflopsGan = 0.0;     ///< 784x40x128 tall-skinny, 1 thread
  double fftTransformsPerSec = 0.0;
  double rangeFftsPerSec = 0.0;    ///< windowed 500 -> 1024, 1 thread
  double beamformMapsPerSec = 0.0;  ///< 227 x 181 x 7, 1 thread
  double awgnSamplesPerSec = 0.0;  ///< 7 x 500 frame, 1 thread
  double toneSetupsPerSec = 0.0;  ///< 10 tones x 3 antennas, 1 thread
  double toneRowsPaperPerSec = 0.0;  ///< 19 chains x 500 samples, 1 thread
  double toneRowsToyPerSec = 0.0;    ///< 13 chains x 8 samples, 1 thread
  double radarFramesPerSec = 0.0;
  double detectMapsPerSec = 0.0;  ///< office 227 x 181 maps, 1 thread
  double ganStepsPerSec = 0.0;
};

/// A timed column: its JSON key, printed label, print scale and unit.
struct Column {
  const char* key;
  const char* label;
  double scale;
  const char* unit;
  double Timings::*field;
};

constexpr Column kColumns[] = {
    {"gemm_gflops_cube", "gemm cube", 1.0, "GFLOP/s",
     &Timings::gemmGflopsCube},
    {"gemm_gflops_gan_shape", "gemm gan shape", 1.0, "GFLOP/s",
     &Timings::gemmGflopsGan},
    {"fft_transforms_per_sec", "fft", 1.0, "/s",
     &Timings::fftTransformsPerSec},
    {"range_ffts_per_sec", "range fft", 1.0, "/s", &Timings::rangeFftsPerSec},
    {"beamform_maps_per_sec", "beamform", 1.0, "maps/s",
     &Timings::beamformMapsPerSec},
    {"awgn_samples_per_sec", "awgn", 1.0e6, "Msamples/s",
     &Timings::awgnSamplesPerSec},
    {"tone_setups_per_sec", "tone setup", 1.0e6, "M/s",
     &Timings::toneSetupsPerSec},
    {"tone_rows_paper_per_sec", "tone rows (paper)", 1.0, "/s",
     &Timings::toneRowsPaperPerSec},
    {"tone_rows_toy_per_sec", "tone rows (toy)", 1.0, "/s",
     &Timings::toneRowsToyPerSec},
    {"radar_frames_per_sec", "radar", 1.0, "frames/s",
     &Timings::radarFramesPerSec},
    {"detect_maps_per_sec", "detect", 1.0, "maps/s",
     &Timings::detectMapsPerSec},
    {"gan_steps_per_sec", "gan", 1.0, "steps/s", &Timings::ganStepsPerSec},
};

double gemmGflops(std::size_t m, std::size_t k, std::size_t n, bool smoke,
                  bool* bitExact) {
  common::Rng rng(17);
  const Matrix a = randomMatrix(m, k, rng);
  const Matrix b = randomMatrix(k, n, rng);
  const double flopsPerCall = 2.0 * static_cast<double>(m) *
                              static_cast<double>(k) * static_cast<double>(n);
  const auto reps = static_cast<std::size_t>(
      std::max(1.0, (smoke ? 2.0e7 : 4.0e8) / flopsPerCall));

  Matrix c;
  linalg::gemm(c, a, b);  // warm-up (sizes buffers)
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    linalg::gemm(c, a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  const double seconds = timer.elapsedS();

  if (bitExact != nullptr) {
    Matrix ref;
    linalg::referenceGemmForLevel(common::simd::activeKernelLevel(), ref, a,
                                  b);
    *bitExact = c.rows() == ref.rows() && c.cols() == ref.cols() &&
                std::memcmp(c.data().data(), ref.data().data(),
                            ref.data().size() * sizeof(double)) == 0;
  }
  return flopsPerCall * static_cast<double>(reps) / seconds / 1.0e9;
}

double fftThroughput(bool smoke) {
  const std::size_t n = smoke ? 256 : 1024;
  const std::size_t reps = smoke ? 200 : 2000;
  common::Rng rng(23);
  std::vector<signal::Complex> base(n);
  for (auto& v : base) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};

  std::vector<signal::Complex> data = base;
  signal::fftInPlace(data);  // warm-up (plan cache)
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    data = base;
    signal::fftInPlace(data);
    benchmark::DoNotOptimize(data.data());
  }
  return static_cast<double>(reps) / timer.elapsedS();
}

constexpr std::size_t kPaperAntennas = 7;
constexpr std::size_t kPaperSamples = 500;

std::vector<std::complex<double>> randomSignal(std::size_t n,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::complex<double>> v(n);
  for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

/// The chain fftWindowedInto replaces, on the level's reference stage
/// passes: copy, applyWindow, zero fill, the bit-reversal swap loop and
/// stagePassScalar / stagePassFmaRef.
std::vector<signal::Complex> referenceRangeFft(
    const std::vector<signal::Complex>& samples,
    const std::vector<double>& window, const signal::FftPlan& plan,
    KernelLevel level) {
  const std::size_t n = plan.n;
  std::vector<signal::Complex> a = samples;
  signal::applyWindow(a, window);
  a.resize(n, signal::Complex{});
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  const signal::detail::StagePassFn pass =
      level == KernelLevel::kSse2 ? &signal::detail::stagePassScalar
                                  : &signal::detail::stagePassFmaRef;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    pass(a.data(), n, len, plan.twiddles.data() + (len / 2 - 1), true);
  }
  return a;
}

/// Windowed, zero-padded range FFTs of one paper-radar frame (7 antennas x
/// 500 samples into 1024 bins) at the active level; the rate counts
/// transforms. Every function below that takes \p bitExact runs its
/// check only when the pointer is non-null.
double rangeFftThroughput(bool smoke, bool* bitExact) {
  const std::size_t reps = smoke ? 20 : 2000;
  const KernelLevel level = common::simd::activeKernelLevel();
  const auto plan =
      signal::fftPlanFor(signal::nextPowerOfTwo(2 * kPaperSamples));
  const std::vector<double> window =
      signal::makeWindow(signal::WindowType::kHann, kPaperSamples);
  std::vector<std::vector<signal::Complex>> frame;
  for (std::size_t k = 0; k < kPaperAntennas; ++k) {
    frame.push_back(randomSignal(kPaperSamples, 300 + k));
  }
  std::vector<signal::Complex> out(kPaperAntennas * plan->n);
  const auto runFrame = [&] {
    for (std::size_t k = 0; k < kPaperAntennas; ++k) {
      signal::fftWindowedInto(
          *plan, frame[k], window,
          std::span<signal::Complex>(out.data() + k * plan->n, plan->n));
    }
  };
  runFrame();  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    runFrame();
    benchmark::DoNotOptimize(out.data());
  }
  const double rate = static_cast<double>(reps * kPaperAntennas) /
                     timer.elapsedS();

  if (bitExact != nullptr) {
    *bitExact = true;
    for (std::size_t k = 0; k < kPaperAntennas; ++k) {
      const auto ref = referenceRangeFft(frame[k], window, *plan, level);
      *bitExact = *bitExact &&
                  std::memcmp(ref.data(), out.data() + k * plan->n,
                              plan->n * sizeof(signal::Complex)) == 0;
    }
  }
  return rate;
}

radar::RadarConfig paperRadar() {
  radar::RadarConfig cfg;
  cfg.position = {5.0, 0.05};
  cfg.noisePower = 1e-6;
  return cfg;
}

/// Eq. 2 beamforming of one paper-radar map (227 rows x 181 angles x 7
/// antennas) through the active level's rows kernel on the paper
/// processor's steering matrix, one call per map as
/// Processor::processInto makes it.
double beamformThroughput(bool smoke, bool* bitExact) {
  constexpr std::size_t kRows = 227;
  const std::size_t reps = smoke ? 20 : 1000;
  const KernelLevel level = common::simd::activeKernelLevel();
  const radar::Processor proc(paperRadar());
  const radar::SteeringMatrix& steering = proc.steering();
  const std::size_t angles = proc.anglesRad().size();
  const auto spectra = randomSignal(kRows * kPaperAntennas, 401);
  const auto sweep = [&](radar::detail::BeamformRowsFn fn,
                         std::vector<double>& map) {
    fn(spectra.data(), kRows, steering.w.data(), steering.reT.data(),
       steering.imT.data(), kPaperAntennas, angles, map.data());
  };
  const radar::detail::BeamformRowsFn fn =
      radar::detail::beamformRowsForLevel(level);
  std::vector<double> map(kRows * angles);
  sweep(fn, map);  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    sweep(fn, map);
    benchmark::DoNotOptimize(map.data());
  }
  const double rate = static_cast<double>(reps) / timer.elapsedS();

  if (bitExact != nullptr) {
    std::vector<double> ref(map.size());
    sweep(level == KernelLevel::kSse2 ? &radar::detail::beamformRowsScalar
                                      : &radar::detail::beamformRowsFmaRef,
          ref);
    *bitExact =
        std::memcmp(map.data(), ref.data(), map.size() * sizeof(double)) == 0;
  }
  return rate;
}

/// The paper radar cut to \p antennas elements and \p samples samples.
radar::RadarConfig toneRadar(std::size_t antennas, std::size_t samples) {
  radar::RadarConfig cfg = paperRadar();
  cfg.numAntennas = static_cast<int>(antennas);
  cfg.chirp.sampleRateHz =
      static_cast<double>(samples) / cfg.chirp.durationS;
  return cfg;
}

/// \p count tones in a 10 m x 10 m room before the radar.
radar::detail::ToneInputs benchTones(std::size_t count, common::Rng& rng) {
  radar::detail::ToneInputs m;
  m.reset(count);
  for (std::size_t i = 0; i < count; ++i) {
    env::PointScatterer s;
    s.position = {rng.uniform(0.0, 10.0), rng.uniform(0.3, 10.0)};
    s.radialOffsetM = rng.uniform(-0.2, 1.0);
    s.beatFreqOffsetHz = rng.uniform(-2e4, 2e4);
    s.phaseOffsetRad = rng.uniform(-3.0, 3.0);
    const double dTx =
        (s.position - common::Vec2{5.0, 0.05}).norm() + s.radialOffsetM;
    m.push(s, rng.uniform(0.01, 1.0), dTx);
  }
  return m;
}

/// The seed's per-(scatterer, antenna) setup written out (hypot path
/// lengths, std::polar, toneChain at sse2): the sse2 level's reference.
void seedToneSetup(const radar::RadarConfig& cfg,
                   const radar::detail::ToneInputs& m,
                   radar::detail::ToneChain* chains, std::size_t stride) {
  const double twoPi = 2.0 * common::pi();
  const double dt = 1.0 / cfg.chirp.sampleRateHz;
  for (std::size_t i = 0; i < m.count; ++i) {
    for (int k = 0; k < cfg.numAntennas; ++k) {
      const common::Vec2 d =
          common::Vec2{m.x[i], m.y[i]} - cfg.antennaPosition(k);
      const double dRx = d.norm() + m.radialOffsetM[i];
      const double tau = (m.dTx[i] + dRx) / common::kSpeedOfLight;
      const double beatHz = cfg.chirp.slope() * tau + m.beatFreqOffsetHz[i];
      const double basePhase =
          twoPi * cfg.chirp.startHz * tau + m.phaseOffsetRad[i];
      chains[static_cast<std::size_t>(k) * stride + i] =
          radar::detail::toneChain(
              KernelLevel::kSse2, std::polar(m.amplitude[i], basePhase),
              std::polar(1.0, twoPi * beatHz * dt));
    }
  }
}

/// Tone setups/s of the active level: (tone, antenna) chains built per
/// second by one setup call of \p tones tones at \p antennas antennas,
/// as a toy frame's tones take it. The check covers every count 0-17 at
/// 3 and 7 antennas against the level's reference: the seed expressions
/// at sse2, toneSetupFmaRef above it.
double toneSetupThroughput(std::size_t tones, std::size_t antennas,
                           std::size_t reps, bool* bitExact) {
  const KernelLevel level = common::simd::activeKernelLevel();
  const radar::detail::ToneSetupFn setup =
      radar::detail::toneSetupForLevel(level);
  if (bitExact != nullptr) {
    common::Rng rng(502);
    *bitExact = true;
    for (const std::size_t k : {std::size_t{3}, std::size_t{7}}) {
      const radar::RadarConfig cfg = toneRadar(k, 500);
      const radar::Frontend frontend(cfg);
      for (std::size_t count = 0; count <= 17; ++count) {
        const radar::detail::ToneInputs m = benchTones(count, rng);
        std::vector<radar::detail::ToneChain> out(k * count), ref(k * count);
        setup(frontend.toneGeometry(), m, out.data(), count);
        if (level == KernelLevel::kSse2) {
          seedToneSetup(cfg, m, ref.data(), count);
        } else {
          radar::detail::toneSetupFmaRef(frontend.toneGeometry(), m,
                                         ref.data(), count);
        }
        *bitExact = *bitExact &&
                    std::memcmp(out.data(), ref.data(),
                                out.size() * sizeof(out[0])) == 0;
      }
    }
  }

  common::Rng rng(503);
  const radar::Frontend frontend(toneRadar(antennas, 8));
  const radar::detail::ToneInputs m = benchTones(tones, rng);
  std::vector<radar::detail::ToneChain> chains(antennas * tones);
  setup(frontend.toneGeometry(), m, chains.data(), tones);  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    setup(frontend.toneGeometry(), m, chains.data(), tones);
    benchmark::DoNotOptimize(chains.data());
  }
  const double seconds = timer.elapsedS();
  return static_cast<double>(reps * tones * antennas) / seconds;
}

/// Tone rows/s of the active level's chains kernel: \p antennas rows of
/// \p samples samples, each taking \p chains tone chains in one call as
/// Frontend::synthesizeInto makes it. The chains come from the level's
/// tone setup inside the timed loop, as every frame builds them. The
/// frame is memcmp-checked against the level's single-chain loop run
/// chain after chain.
double toneRowsThroughput(std::size_t chains, std::size_t samples,
                          std::size_t antennas, std::size_t reps,
                          bool* bitExact) {
  const KernelLevel level = common::simd::activeKernelLevel();
  const radar::detail::ToneAccumChainsFn fn =
      radar::detail::toneAccumChainsForLevel(level);
  const radar::detail::ToneSetupFn setup =
      radar::detail::toneSetupForLevel(level);
  const radar::Frontend frontend(toneRadar(antennas, samples));
  common::Rng rng(501);
  const radar::detail::ToneInputs tones = benchTones(chains, rng);
  std::vector<radar::detail::ToneChain> starts(antennas * chains);
  std::vector<std::complex<double>> frame(antennas * samples);
  const auto runFrame = [&](radar::detail::ToneAccumChainsFn kernel) {
    std::fill(frame.begin(), frame.end(), std::complex<double>{});
    setup(frontend.toneGeometry(), tones, starts.data(), chains);
    for (std::size_t k = 0; k < antennas; ++k) {
      kernel(frame.data() + k * samples, samples,
             starts.data() + k * chains, chains);
    }
  };
  runFrame(fn);  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    runFrame(fn);
    benchmark::DoNotOptimize(frame.data());
  }
  const double rate = static_cast<double>(reps * antennas) / timer.elapsedS();

  if (bitExact != nullptr) {
    const std::vector<std::complex<double>> out = frame;
    const radar::detail::ToneAccumChainsFn single =
        level == KernelLevel::kSse2 ? &radar::detail::toneAccumChainsScalar
                                    : &radar::detail::toneAccumChainsFmaRef;
    runFrame([](std::complex<double>*, std::size_t,
                const radar::detail::ToneChain*, std::size_t) {});
    for (std::size_t k = 0; k < antennas; ++k) {
      for (std::size_t c = 0; c < chains; ++c) {
        single(frame.data() + k * samples, samples,
               starts.data() + k * chains + c, 1);
      }
    }
    *bitExact = std::memcmp(out.data(), frame.data(),
                            frame.size() * sizeof(frame[0])) == 0;
  }
  return rate;
}

/// Noise kernel of the active level on one paper-radar frame: 7 antenna
/// streams of 500 samples, a fresh chirp counter per repetition.
double awgnThroughput(bool smoke, bool* bitExact) {
  constexpr std::size_t kAntennas = 7;
  constexpr std::size_t kSamples = 500;
  const std::size_t reps = smoke ? 20 : 2000;
  const KernelLevel level = common::simd::activeKernelLevel();
  const signal::detail::AwgnAccumFn fn =
      signal::detail::awgnAccumForLevel(level);
  std::vector<std::complex<double>> frame(kAntennas * kSamples);
  const auto runFrame = [&](signal::detail::AwgnAccumFn kernel,
                            std::uint64_t chirp) {
    for (std::size_t k = 0; k < kAntennas; ++k) {
      kernel(frame.data() + k * kSamples, kSamples, 0.3, 99, chirp, k);
    }
  };
  runFrame(fn, 0);  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    runFrame(fn, r);
    benchmark::DoNotOptimize(frame.data());
  }
  const double rate =
      static_cast<double>(reps * kAntennas * kSamples) / timer.elapsedS();

  if (bitExact != nullptr) {
    std::fill(frame.begin(), frame.end(), std::complex<double>{});
    runFrame(fn, 7);
    const std::vector<std::complex<double>> out = frame;
    std::fill(frame.begin(), frame.end(), std::complex<double>{});
    runFrame(level == KernelLevel::kSse2 ? &signal::detail::awgnAccumScalar
                                         : &signal::detail::awgnAccumFmaRef,
             7);
    *bitExact = std::memcmp(out.data(), frame.data(),
                            frame.size() * sizeof(frame[0])) == 0;
  }
  return rate;
}

/// Two scatterers in front of the paper radar, the second weaker.
std::vector<env::PointScatterer> twoScatterers(const radar::RadarConfig& cfg) {
  std::vector<env::PointScatterer> scatterers(2);
  scatterers[0].position = cfg.position + common::Vec2{0.3, 3.0};
  scatterers[1].position = cfg.position + common::Vec2{-1.0, 5.5};
  scatterers[1].amplitude = 0.6;
  return scatterers;
}

double radarThroughput(bool smoke) {
  const radar::RadarConfig cfg = paperRadar();
  const radar::Frontend frontend(cfg);
  const radar::Processor processor(cfg);
  const std::vector<env::PointScatterer> scatterers = twoScatterers(cfg);

  const std::size_t frames = smoke ? 4 : 40;
  // Warm-up primes the steering/FFT plan caches and the thread pool.
  processor.process(frontend.synthesize(scatterers, 0.0, 99, 0));
  bench::WallTimer timer;
  for (std::size_t f = 0; f < frames; ++f) {
    const radar::Frame frame =
        frontend.synthesize(scatterers, 0.02 * static_cast<double>(f), 99,
                            static_cast<std::uint64_t>(f));
    const radar::RangeAngleMap map = processor.process(frame);
    benchmark::DoNotOptimize(map.power.data());
  }
  return static_cast<double>(frames) / timer.elapsedS();
}

/// Office range-angle maps as the eavesdropper sees them (the paper
/// radar, 227 x 181 cells): \p count background-subtracted frames of the
/// office scenario with one ghost walking.
std::vector<radar::RangeAngleMap> officeDetectionMaps(
    const core::Scenario& scenario, std::size_t count) {
  common::Rng rng(2024);
  trajectory::HumanWalkModel model;
  const trajectory::Trace trace = trajectory::centered(model.sample(rng));
  core::RfProtectSystem system(scenario.makeController());
  const double dt = 1.0 / scenario.sensing.radar.frameRateHz;
  system.addGhostAuto(trace, 2.0 * dt, scenario.plan, rng);
  env::Environment environment(scenario.plan);
  core::EavesdropperRadar radar(scenario.sensing);
  std::vector<env::PointScatterer> scene;
  radar::Frame frame;
  radar::ProcessorScratch scratch;
  std::vector<radar::RangeAngleMap> maps;
  for (std::size_t f = 0; maps.size() < count; ++f) {
    const double t = static_cast<double>(f) * dt;
    core::combineScatterersInto(scene, environment, t, rng, scenario.snapshot,
                                system.injectAt(t));
    radar.senseRawInto(frame, scene, t, rng);
    const radar::Frame* diff = radar.backgroundDiff(frame);
    if (diff == nullptr) continue;
    radar.processor().processInto(*diff, maps.emplace_back(), scratch);
  }
  return maps;
}

/// What a detection run must reproduce at every level.
struct DetectionOutput {
  std::vector<double> floors;
  std::vector<tracking::Detection> candidates;
  std::uint64_t misses = 0;  ///< sampled brackets that missed the median

  bool operator==(const DetectionOutput& o) const {
    // Detection is four doubles and a Vec2: no padding to compare.
    return floors.size() == o.floors.size() &&
           std::memcmp(floors.data(), o.floors.data(),
                       floors.size() * sizeof(double)) == 0 &&
           candidates.size() == o.candidates.size() &&
           (candidates.empty() ||
            std::memcmp(candidates.data(), o.candidates.data(),
                        candidates.size() * sizeof(tracking::Detection)) ==
                0);
  }
};

/// PeakDetector::detectInto at the active level over \p maps, \p reps
/// passes after a warm-up pass, returning maps/s. A non-null \p output
/// receives each map's noise floor, every candidate of every map (no NMS,
/// no cap) in map order, and the misses counted over the warm-up pass.
double detectionThroughput(const std::vector<radar::RangeAngleMap>& maps,
                           const radar::Processor& processor,
                           std::size_t reps, DetectionOutput* output) {
  tracking::DetectorOptions opts;
  opts.minSeparationM = 0.0;
  opts.minSeparationRad = 0.0;
  opts.dynamicRangeDb = 0.0;
  opts.maxDetections = std::numeric_limits<std::size_t>::max();
  const tracking::PeakDetector detector(opts);
  tracking::DetectScratch scratch;
  std::vector<tracking::Detection> found;
  for (const radar::RangeAngleMap& map : maps) {  // warm, and the output
    detector.detectInto(map, processor, scratch, found);
    if (output == nullptr) continue;
    output->candidates.insert(output->candidates.end(), found.begin(),
                              found.end());
    output->floors.push_back(tracking::PeakDetector::noiseFloor(map));
  }
  if (output != nullptr) output->misses = scratch.misses;
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const radar::RangeAngleMap& map : maps) {
      detector.detectInto(map, processor, scratch, found);
      benchmark::DoNotOptimize(found.data());
    }
  }
  return static_cast<double>(reps * maps.size()) / timer.elapsedS();
}

double ganThroughput(const std::vector<trajectory::Trace>& dataset,
                     bool smoke) {
  common::Rng rng(7);
  gan::GanTrainingConfig tc;
  tc.batchSize = 16;
  tc.epochs = 100000;  // the step budget below is the actual limit
  gan::TrajectoryGan gan(bench::benchGeneratorConfig(),
                         bench::benchDiscriminatorConfig(), tc, rng);
  gan::TrainingSession session(gan, dataset, rng);

  const std::size_t numSteps = smoke ? 2 : 12;
  std::size_t steps = 0;
  bench::WallTimer timer;
  while (steps < numSteps) {
    const auto ev = session.advance();
    if (ev.type == gan::TrainingSession::Event::Type::kDone) break;
    if (ev.type == gan::TrainingSession::Event::Type::kBatch) ++steps;
  }
  return static_cast<double>(steps) / timer.elapsedS();
}

/// One level's bit-identity checks, run in the first round only.
struct Checks {
  bool gemmCube = false;  ///< memcmp vs referenceGemmForLevel
  bool gemmGanShape = false;
  bool rangeFft = false;  ///< memcmp vs the reference chain
  bool beamform = false;  ///< memcmp vs the level's rows reference
  bool awgn = false;  ///< memcmp vs the level's noise reference
  bool toneSetup = false;  ///< memcmp vs the level's reference
  bool tonePaper = false;  ///< memcmp vs the single-chain loop
  bool toneToy = false;
  bool detect = false;  ///< floor + candidates memcmp vs sse2
  DetectionOutput detection;

  bool gemm() const { return gemmCube && gemmGanShape; }
  bool tone() const { return tonePaper && toneToy; }
};

/// Times every column once at the active level; with \p checks, also
/// runs every check.
Timings timeLevel(bool smoke, const std::vector<trajectory::Trace>& dataset,
                  const std::vector<radar::RangeAngleMap>& detectMaps,
                  const radar::Processor& detectProcessor, Checks* checks) {
  const auto flag = [checks](bool Checks::*member) {
    return checks != nullptr ? &(checks->*member) : nullptr;
  };
  Timings t;
  common::ThreadPool::setGlobalThreads(1);
  if (smoke) {
    t.gemmGflopsCube = gemmGflops(64, 64, 64, smoke, flag(&Checks::gemmCube));
    t.gemmGflopsGan =
        gemmGflops(33, 17, 29, smoke, flag(&Checks::gemmGanShape));
  } else {
    t.gemmGflopsCube =
        gemmGflops(256, 256, 256, smoke, flag(&Checks::gemmCube));
    t.gemmGflopsGan =
        gemmGflops(784, 40, 128, smoke, flag(&Checks::gemmGanShape));
  }
  t.fftTransformsPerSec = fftThroughput(smoke);
  t.rangeFftsPerSec = rangeFftThroughput(smoke, flag(&Checks::rangeFft));
  t.beamformMapsPerSec = beamformThroughput(smoke, flag(&Checks::beamform));
  t.awgnSamplesPerSec = awgnThroughput(smoke, flag(&Checks::awgn));
  t.toneSetupsPerSec = toneSetupThroughput(10, 3, smoke ? 200 : 200000,
                                           flag(&Checks::toneSetup));
  t.toneRowsPaperPerSec =
      toneRowsThroughput(19, kPaperSamples, kPaperAntennas, smoke ? 20 : 2000,
                         flag(&Checks::tonePaper));
  t.toneRowsToyPerSec = toneRowsThroughput(13, 8, 3, smoke ? 200 : 20000,
                                           flag(&Checks::toneToy));
  t.detectMapsPerSec =
      detectionThroughput(detectMaps, detectProcessor, smoke ? 5 : 100,
                          checks != nullptr ? &checks->detection : nullptr);
  common::ThreadPool::setGlobalThreads(0);  // end-to-end uses the full pool
  t.radarFramesPerSec = radarThroughput(smoke);
  t.ganStepsPerSec = ganThroughput(dataset, smoke);
  return t;
}

/// Median, min and max of one column over the rounds.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spreadOf(const std::vector<Timings>& rounds, double Timings::*field) {
  std::vector<double> values;
  for (const Timings& t : rounds) values.push_back(t.*field);
  return {common::median(values),
          *std::min_element(values.begin(), values.end()),
          *std::max_element(values.begin(), values.end())};
}

int runKernelSweep(bool smoke) {
  bench::printHeader(
      "SIMD kernel sweep -- GEMM / FFT / beamforming / AWGN / radar / "
      "detection / GAN throughput per ISA level");
  std::printf("  cpu features: %s\n",
              common::simd::cpuFeatureString().c_str());

  // availableKernelLevels() starts with sse2, the detection reference.
  const std::vector<KernelLevel> levels = common::simd::availableKernelLevels();
  const bool fmaAvailable =
      levels.back() != KernelLevel::kSse2;
  if (!fmaAvailable) {
    std::printf(
        "  NOTE: this host lacks AVX2+FMA; only the sse2 baseline row is "
        "measured.\n");
  }

  trajectory::HumanWalkModel walker;
  common::Rng dataRng(42);
  const auto dataset = walker.dataset(smoke ? 32 : 96, dataRng);
  const core::Scenario office = core::makeOfficeScenario();
  const radar::Processor detectProcessor(office.sensing.radar);
  const std::vector<radar::RangeAngleMap> detectMaps =
      officeDetectionMaps(office, smoke ? 4 : 32);

  // Levels interleave within each round, so a slow stretch of a shared
  // host spreads over every level instead of landing on one.
  const std::size_t rounds = smoke ? 1 : 5;
  const KernelLevel prevLevel = common::simd::activeKernelLevel();
  std::vector<Checks> checks(levels.size());
  std::vector<std::vector<Timings>> timings(levels.size());
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      common::simd::setActiveKernelLevel(levels[l]);
      timings[l].push_back(timeLevel(smoke, dataset, detectMaps,
                                     detectProcessor,
                                     r == 0 ? &checks[l] : nullptr));
    }
  }
  common::simd::setActiveKernelLevel(prevLevel);

  bool allExact = true;
  for (Checks& c : checks) {
    c.detect = c.detection == checks.front().detection;
    allExact = allExact && c.gemm() && c.rangeFft && c.beamform && c.awgn &&
               c.toneSetup && c.tone() && c.detect;
  }

  const auto verdict = [](bool ok) { return ok ? "bit-exact" : "MISMATCH"; };
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Checks& c = checks[l];
    std::printf(
        "  %-8s : gemm %s  range fft %s  beamform %s  awgn %s  tone setup "
        "%s  tone %s  detect %s (%zu candidates, %llu bracket misses over "
        "%zu maps); median [min-max] of %zu rounds:\n",
        common::simd::kernelLevelName(levels[l]), verdict(c.gemm()),
        verdict(c.rangeFft), verdict(c.beamform), verdict(c.awgn),
        verdict(c.toneSetup), verdict(c.tone()),
        c.detect ? "matches sse2" : "MISMATCH", c.detection.candidates.size(),
        static_cast<unsigned long long>(c.detection.misses),
        detectMaps.size(), rounds);
    for (const Column& col : kColumns) {
      const Spread v = spreadOf(timings[l], col.field);
      std::printf("    %-18s %12.2f [%.2f-%.2f] %s\n", col.label,
                  v.median / col.scale, v.min / col.scale, v.max / col.scale,
                  col.unit);
    }
  }

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "kernels")
      .field("smoke", smoke)
      .field("rounds", rounds);
  bench::stampRunProvenance(json)
      .field("avx2_fma_available", fmaAvailable)
      .beginArray("levels");
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const Checks& c = checks[l];
    json.beginObject().field("level",
                             common::simd::kernelLevelName(levels[l]));
    for (const Column& col : kColumns) {
      const Spread v = spreadOf(timings[l], col.field);
      const std::string key = col.key;
      json.field(col.key, v.median)
          .field((key + "_min").c_str(), v.min)
          .field((key + "_max").c_str(), v.max);
    }
    json.field("detect_bracket_misses", c.detection.misses)
        .field("gemm_bit_exact", c.gemm())
        .field("range_fft_bit_exact", c.rangeFft)
        .field("beamform_bit_exact", c.beamform)
        .field("awgn_bit_exact", c.awgn)
        .field("tone_setup_bit_exact", c.toneSetup)
        .field("tone_bit_exact", c.tone())
        .field("detect_matches_sse2", c.detect)
        .endObject();
  }
  json.endArray().field("all_bit_exact", allExact).endObject();
  if (json.writeFile("BENCH_kernels.json")) {
    std::printf("  wrote BENCH_kernels.json\n");
  }

  if (!allExact) {
    std::fprintf(stderr,
                 "FAIL: a kernel level diverged from its scalar reference\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return runKernelSweep(smoke);
}
