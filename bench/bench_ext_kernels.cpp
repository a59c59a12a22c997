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
///   - tone setups/s, the (miss, antenna) chains one setup call builds
///     for a toy frame's memo misses (10 misses x 3 antennas),
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
/// misses memcmp-equal to the seed expressions (sse2) or toneSetupFmaRef
/// (FMA levels), the tone rows memcmp-equal to
/// the level's single-chain loop run chain after chain, the detection
/// maps' noise floors and candidate lists memcmp-equal to the sse2 run's)
/// so the sweep doubles as a cheap determinism gate. Emits
/// `BENCH_kernels.json` with the detected CPU feature flags; on a host
/// without AVX2+FMA only the sse2 row is produced (the JSON records that
/// explicitly so results from such a box are not misread as a
/// regression). `--smoke` is the CI variant: tiny
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

/// One measured row of the sweep (all at the forced kernel level).
struct LevelRow {
  KernelLevel level;
  double gemmGflopsCube = 0.0;    ///< 256^3 (smoke: 64^3), 1 thread
  double gemmGflopsGan = 0.0;     ///< 784x40x128 tall-skinny, 1 thread
  double fftTransformsPerSec = 0.0;
  double rangeFftsPerSec = 0.0;    ///< windowed 500 -> 1024, 1 thread
  double beamformMapsPerSec = 0.0;  ///< 227 x 181 x 7, 1 thread
  double awgnSamplesPerSec = 0.0;  ///< 7 x 500 frame, 1 thread
  double toneSetupsPerSec = 0.0;  ///< 10 misses x 3 antennas, 1 thread
  double toneRowsPaperPerSec = 0.0;  ///< 19 chains x 500 samples, 1 thread
  double toneRowsToyPerSec = 0.0;    ///< 13 chains x 8 samples, 1 thread
  double radarFramesPerSec = 0.0;
  double detectMapsPerSec = 0.0;  ///< office 227 x 181 maps, 1 thread
  std::uint64_t detectMisses = 0;  ///< sampled brackets that missed
  double ganStepsPerSec = 0.0;
  bool gemmBitExact = false;  ///< memcmp vs referenceGemmForLevel
  bool rangeFftBitExact = false;  ///< memcmp vs the reference chain
  bool beamformBitExact = false;  ///< memcmp vs the level's rows reference
  bool awgnBitExact = false;  ///< memcmp vs the level's noise reference
  bool toneSetupBitExact = false;  ///< memcmp vs the level's reference
  bool toneBitExact = false;  ///< memcmp vs the single-chain loop
  bool detectBitExact = false;  ///< floor + candidates memcmp vs sse2
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
/// transforms.
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
  const double seconds = timer.elapsedS();

  *bitExact = true;
  for (std::size_t k = 0; k < kPaperAntennas; ++k) {
    const auto ref = referenceRangeFft(frame[k], window, *plan, level);
    *bitExact = *bitExact &&
                std::memcmp(ref.data(), out.data() + k * plan->n,
                            plan->n * sizeof(signal::Complex)) == 0;
  }
  return static_cast<double>(reps * kPaperAntennas) / seconds;
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
  const double seconds = timer.elapsedS();

  std::vector<double> ref(map.size());
  sweep(level == KernelLevel::kSse2 ? &radar::detail::beamformRowsScalar
                                    : &radar::detail::beamformRowsFmaRef,
        ref);
  *bitExact =
      std::memcmp(map.data(), ref.data(), map.size() * sizeof(double)) == 0;
  return static_cast<double>(reps) / seconds;
}

/// The paper radar cut to \p antennas elements and \p samples samples.
radar::RadarConfig toneRadar(std::size_t antennas, std::size_t samples) {
  radar::RadarConfig cfg = paperRadar();
  cfg.numAntennas = static_cast<int>(antennas);
  cfg.chirp.sampleRateHz =
      static_cast<double>(samples) / cfg.chirp.durationS;
  return cfg;
}

/// \p count memo misses in a 10 m x 10 m room before the radar, at
/// columns 0 .. count - 1.
radar::detail::ToneMisses benchMisses(std::size_t count, common::Rng& rng) {
  radar::detail::ToneMisses m;
  m.reset(count);
  for (std::size_t i = 0; i < count; ++i) {
    env::PointScatterer s;
    s.position = {rng.uniform(0.0, 10.0), rng.uniform(0.3, 10.0)};
    s.radialOffsetM = rng.uniform(-0.2, 1.0);
    s.beatFreqOffsetHz = rng.uniform(-2e4, 2e4);
    s.phaseOffsetRad = rng.uniform(-3.0, 3.0);
    const double dTx =
        (s.position - common::Vec2{5.0, 0.05}).norm() + s.radialOffsetM;
    m.push(s, rng.uniform(0.01, 1.0), dTx, i);
  }
  return m;
}

/// The seed's per-(scatterer, antenna) setup written out (hypot path
/// lengths, std::polar, toneChain at sse2): the sse2 level's reference.
void seedToneSetup(const radar::RadarConfig& cfg,
                   const radar::detail::ToneMisses& m,
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
      chains[static_cast<std::size_t>(k) * stride + m.column[i]] =
          radar::detail::toneChain(
              KernelLevel::kSse2, std::polar(m.amplitude[i], basePhase),
              std::polar(1.0, twoPi * beatHz * dt));
    }
  }
}

/// Tone setups/s of the active level: (miss, antenna) chains built per
/// second by one setup call of \p misses misses at \p antennas
/// antennas, as a toy frame's memo misses take it. Before timing, every
/// count 0-17 at 3 and 7 antennas is memcmp-checked against the level's
/// reference: the seed expressions at sse2, toneSetupFmaRef above it.
double toneSetupThroughput(std::size_t misses, std::size_t antennas,
                           std::size_t reps, bool* bitExact) {
  const KernelLevel level = common::simd::activeKernelLevel();
  const radar::detail::ToneSetupFn setup =
      radar::detail::toneSetupForLevel(level);
  common::Rng rng(502);
  *bitExact = true;
  for (const std::size_t k : {std::size_t{3}, std::size_t{7}}) {
    const radar::RadarConfig cfg = toneRadar(k, 500);
    const radar::Frontend frontend(cfg);
    for (std::size_t count = 0; count <= 17; ++count) {
      const radar::detail::ToneMisses m = benchMisses(count, rng);
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

  const radar::Frontend frontend(toneRadar(antennas, 8));
  const radar::detail::ToneMisses m = benchMisses(misses, rng);
  std::vector<radar::detail::ToneChain> chains(antennas * misses);
  setup(frontend.toneGeometry(), m, chains.data(), misses);  // warm-up
  bench::WallTimer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    setup(frontend.toneGeometry(), m, chains.data(), misses);
    benchmark::DoNotOptimize(chains.data());
  }
  const double seconds = timer.elapsedS();
  return static_cast<double>(reps * misses * antennas) / seconds;
}

/// Tone rows/s of the active level's chains kernel: \p antennas rows of
/// \p samples samples, each taking \p chains tone chains in one call as
/// Frontend::synthesizeInto makes it. The chains come from the level's
/// tone setup inside the timed loop, as when every scatterer misses the
/// memo. The frame is memcmp-checked against the level's single-chain
/// loop run chain after chain.
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
  const radar::detail::ToneMisses misses = benchMisses(chains, rng);
  std::vector<radar::detail::ToneChain> starts(antennas * chains);
  std::vector<std::complex<double>> frame(antennas * samples);
  const auto runFrame = [&](radar::detail::ToneAccumChainsFn kernel) {
    std::fill(frame.begin(), frame.end(), std::complex<double>{});
    setup(frontend.toneGeometry(), misses, starts.data(), chains);
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
  const double seconds = timer.elapsedS();

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
  return static_cast<double>(reps * antennas) / seconds;
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
  const double seconds = timer.elapsedS();

  std::fill(frame.begin(), frame.end(), std::complex<double>{});
  runFrame(fn, 7);
  const std::vector<std::complex<double>> out = frame;
  std::fill(frame.begin(), frame.end(), std::complex<double>{});
  runFrame(level == KernelLevel::kSse2 ? &signal::detail::awgnAccumScalar
                                       : &signal::detail::awgnAccumFmaRef,
           7);
  *bitExact = std::memcmp(out.data(), frame.data(),
                          frame.size() * sizeof(frame[0])) == 0;
  return static_cast<double>(reps * kAntennas * kSamples) / seconds;
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
/// passes, returning maps/s. \p output receives each map's noise floor,
/// every candidate of every map (no NMS, no cap) in map order, and the
/// misses counted over the first pass.
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
    output->candidates.insert(output->candidates.end(), found.begin(),
                              found.end());
    output->floors.push_back(tracking::PeakDetector::noiseFloor(map));
  }
  output->misses = scratch.misses;
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

int runKernelSweep(bool smoke) {
  bench::printHeader(
      "SIMD kernel sweep -- GEMM / FFT / beamforming / AWGN / radar / "
      "detection / GAN throughput per ISA level");
  std::printf("  cpu features: %s\n",
              common::simd::cpuFeatureString().c_str());

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
  DetectionOutput sse2Detection;

  const KernelLevel prevLevel = common::simd::activeKernelLevel();
  bool allExact = true;
  std::vector<LevelRow> rows;
  for (KernelLevel level : levels) {
    common::simd::setActiveKernelLevel(level);
    LevelRow row;
    row.level = level;

    common::ThreadPool::setGlobalThreads(1);
    bool cubeExact = false, ganShapeExact = false;
    if (smoke) {
      row.gemmGflopsCube = gemmGflops(64, 64, 64, smoke, &cubeExact);
      row.gemmGflopsGan = gemmGflops(33, 17, 29, smoke, &ganShapeExact);
    } else {
      row.gemmGflopsCube = gemmGflops(256, 256, 256, smoke, &cubeExact);
      row.gemmGflopsGan = gemmGflops(784, 40, 128, smoke, &ganShapeExact);
    }
    row.gemmBitExact = cubeExact && ganShapeExact;
    allExact = allExact && row.gemmBitExact;
    row.fftTransformsPerSec = fftThroughput(smoke);
    row.rangeFftsPerSec = rangeFftThroughput(smoke, &row.rangeFftBitExact);
    allExact = allExact && row.rangeFftBitExact;
    row.beamformMapsPerSec = beamformThroughput(smoke, &row.beamformBitExact);
    allExact = allExact && row.beamformBitExact;
    row.awgnSamplesPerSec = awgnThroughput(smoke, &row.awgnBitExact);
    allExact = allExact && row.awgnBitExact;
    row.toneSetupsPerSec = toneSetupThroughput(10, 3, smoke ? 200 : 200000,
                                               &row.toneSetupBitExact);
    allExact = allExact && row.toneSetupBitExact;
    bool paperToneExact = false, toyToneExact = false;
    row.toneRowsPaperPerSec = toneRowsThroughput(
        19, kPaperSamples, kPaperAntennas, smoke ? 20 : 2000, &paperToneExact);
    row.toneRowsToyPerSec =
        toneRowsThroughput(13, 8, 3, smoke ? 200 : 20000, &toyToneExact);
    row.toneBitExact = paperToneExact && toyToneExact;
    allExact = allExact && row.toneBitExact;
    DetectionOutput detection;
    row.detectMapsPerSec = detectionThroughput(
        detectMaps, detectProcessor, smoke ? 5 : 100, &detection);
    row.detectMisses = detection.misses;
    if (level == KernelLevel::kSse2) sse2Detection = detection;
    row.detectBitExact = detection == sse2Detection;
    allExact = allExact && row.detectBitExact;
    common::ThreadPool::setGlobalThreads(0);  // end-to-end uses the full pool
    row.radarFramesPerSec = radarThroughput(smoke);
    row.ganStepsPerSec = ganThroughput(dataset, smoke);
    rows.push_back(row);

    std::printf(
        "  %-8s : gemm %7.2f / %7.2f GFLOP/s  fft %8.0f /s  range fft %8.0f "
        "/s  beamform %6.0f maps/s  awgn %6.1f Msamples/s  tone setup "
        "%6.1f M/s  tone rows %7.0f (paper) %8.0f (toy) /s  radar %6.1f "
        "frames/s  detect %7.0f maps/s  gan %5.2f steps/s  gemm %s  range "
        "fft %s  beamform %s  awgn %s  tone setup %s  tone %s  detect %s "
        "(%zu candidates, %llu bracket misses over %zu maps)\n",
        common::simd::kernelLevelName(level), row.gemmGflopsCube,
        row.gemmGflopsGan, row.fftTransformsPerSec, row.rangeFftsPerSec,
        row.beamformMapsPerSec, row.awgnSamplesPerSec / 1.0e6,
        row.toneSetupsPerSec / 1.0e6, row.toneRowsPaperPerSec, row.toneRowsToyPerSec,
        row.radarFramesPerSec, row.detectMapsPerSec, row.ganStepsPerSec,
        row.gemmBitExact ? "bit-exact" : "MISMATCH",
        row.rangeFftBitExact ? "bit-exact" : "MISMATCH",
        row.beamformBitExact ? "bit-exact" : "MISMATCH",
        row.awgnBitExact ? "bit-exact" : "MISMATCH",
        row.toneSetupBitExact ? "bit-exact" : "MISMATCH",
        row.toneBitExact ? "bit-exact" : "MISMATCH",
        row.detectBitExact ? "matches sse2" : "MISMATCH",
        detection.candidates.size(),
        static_cast<unsigned long long>(row.detectMisses), detectMaps.size());
  }
  common::simd::setActiveKernelLevel(prevLevel);

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "kernels")
      .field("smoke", smoke);
  bench::stampRunProvenance(json)
      .field("avx2_fma_available", fmaAvailable)
      .beginArray("levels");
  for (const LevelRow& row : rows) {
    json.beginObject()
        .field("level", common::simd::kernelLevelName(row.level))
        .field("gemm_gflops_cube", row.gemmGflopsCube)
        .field("gemm_gflops_gan_shape", row.gemmGflopsGan)
        .field("fft_transforms_per_sec", row.fftTransformsPerSec)
        .field("range_ffts_per_sec", row.rangeFftsPerSec)
        .field("beamform_maps_per_sec", row.beamformMapsPerSec)
        .field("awgn_samples_per_sec", row.awgnSamplesPerSec)
        .field("tone_setups_per_sec", row.toneSetupsPerSec)
        .field("tone_rows_paper_per_sec", row.toneRowsPaperPerSec)
        .field("tone_rows_toy_per_sec", row.toneRowsToyPerSec)
        .field("radar_frames_per_sec", row.radarFramesPerSec)
        .field("detect_maps_per_sec", row.detectMapsPerSec)
        .field("detect_bracket_misses", row.detectMisses)
        .field("gan_steps_per_sec", row.ganStepsPerSec)
        .field("gemm_bit_exact", row.gemmBitExact)
        .field("range_fft_bit_exact", row.rangeFftBitExact)
        .field("beamform_bit_exact", row.beamformBitExact)
        .field("awgn_bit_exact", row.awgnBitExact)
        .field("tone_setup_bit_exact", row.toneSetupBitExact)
        .field("tone_bit_exact", row.toneBitExact)
        .field("detect_matches_sse2", row.detectBitExact)
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
