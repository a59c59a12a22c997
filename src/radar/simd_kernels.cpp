/// \file simd_kernels.cpp
/// Baseline TU of the radar kernel family: the seed-exact scalar
/// variants, the portable FMA-regime emulations, and the per-level
/// registries. Compiled without target feature flags so the scalar
/// references stay bit-identical to the pre-dispatch code on every
/// host (DESIGN.md Sec. 13).

#include "radar/simd_kernels.h"

#include <bit>
#include <cmath>

#include "common/constants.h"
#include "common/fma_complex.h"
#include "common/vec2.h"

namespace rfp::radar::detail {

using rfp::common::simd::fmaComplexMul;
using rfp::common::simd::KernelLevel;
using rfp::signal::detail::SinCos;

ToneChain toneChain(KernelLevel level, Complex phasor, Complex rot) {
  if (level == KernelLevel::kSse2) return {{phasor}, rot};
  // a * b rounded product by product, (ac - bd, ad + bc).
  const auto mul = [](Complex a, Complex b) -> Complex {
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
  };
  const Complex rot2 = mul(rot, rot);
  const Complex p1 = mul(phasor, rot);
  return {{phasor, p1, mul(phasor, rot2), mul(p1, rot2)}, mul(rot2, rot2)};
}

void ToneMisses::reset(std::size_t capacity) {
  if (column.size() < capacity) {
    for (std::vector<double>* v : {&x, &y, &radialOffsetM, &amplitude,
                                   &beatFreqOffsetHz, &phaseOffsetRad,
                                   &dTx}) {
      v->resize(capacity);
    }
    column.resize(capacity);
  }
  count = 0;
}

void ToneMisses::push(const env::PointScatterer& s, double amplitudeAfterLoss,
                      double txPathM, std::size_t chainColumn) {
  x[count] = s.position.x;
  y[count] = s.position.y;
  radialOffsetM[count] = s.radialOffsetM;
  amplitude[count] = amplitudeAfterLoss;
  beatFreqOffsetHz[count] = s.beatFreqOffsetHz;
  phaseOffsetRad[count] = s.phaseOffsetRad;
  dTx[count] = txPathM;
  column[count] = chainColumn;
  ++count;
}

void toneSetupScalar(const ToneGeometry& g, const ToneMisses& m,
                     ToneChain* chains, std::size_t stride) {
  const double twoPi = 2.0 * rfp::common::pi();
  for (std::size_t i = 0; i < m.count; ++i) {
    ToneChain* column = chains + m.column[i];
    for (std::size_t k = 0; k < g.rxX.size(); ++k) {
      const rfp::common::Vec2 d{m.x[i] - g.rxX[k], m.y[i] - g.rxY[k]};
      const double dRx = d.norm() + m.radialOffsetM[i];
      const double tau = (m.dTx[i] + dRx) / rfp::common::kSpeedOfLight;
      const double beatHz = g.slopeHzPerS * tau + m.beatFreqOffsetHz[i];
      const double basePhase = twoPi * g.startHz * tau + m.phaseOffsetRad[i];
      // The tone is phasor * rot^n: a per-sample rotation instead of
      // numSamples sin/cos calls per scatterer-antenna pair.
      column[k * stride] = toneChain(
          KernelLevel::kSse2, std::polar(m.amplitude[i], basePhase),
          std::polar(1.0, twoPi * beatHz * g.sampleIntervalS));
    }
  }
}

SinCos toneSinCosFmaRef(double x) {
  const double shifted = x * kTwoOverPi + 0x1.8p52;
  const double q = shifted - 0x1.8p52;
  double r = std::fma(-q, kPiOver2Hi, x);
  r = std::fma(-q, kPiOver2Mid, r);
  r = std::fma(-q, kPiOver2Lo, r);
  return rfp::signal::detail::quarterTurnSinCos(
      r * kTwoOverPi, std::bit_cast<std::uint64_t>(shifted));
}

void toneSetupFmaRef(const ToneGeometry& g, const ToneMisses& m,
                     ToneChain* chains, std::size_t stride) {
  const double twoPi = 2.0 * rfp::common::pi();
  for (std::size_t i = 0; i < m.count; ++i) {
    ToneChain* column = chains + m.column[i];
    for (std::size_t k = 0; k < g.rxX.size(); ++k) {
      const double dx = m.x[i] - g.rxX[k];
      const double dy = m.y[i] - g.rxY[k];
      const double dRx =
          std::sqrt(std::fma(dx, dx, dy * dy)) + m.radialOffsetM[i];
      const double tau = (m.dTx[i] + dRx) / rfp::common::kSpeedOfLight;
      const double beatHz = g.slopeHzPerS * tau + m.beatFreqOffsetHz[i];
      const double basePhase = twoPi * g.startHz * tau + m.phaseOffsetRad[i];
      const SinCos a = toneSinCosFmaRef(basePhase);
      const SinCos b = toneSinCosFmaRef(twoPi * beatHz * g.sampleIntervalS);
      column[k * stride] = toneChain(
          KernelLevel::kAvx2Fma,
          {m.amplitude[i] * a.cos, m.amplitude[i] * a.sin}, {b.cos, b.sin});
    }
  }
}

void toneAccumChainsScalar(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count) {
  for (std::size_t c = 0; c < count; ++c) {
    Complex phasor = chains[c].p[0];
    const Complex step = chains[c].step;
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] += phasor;
      phasor *= step;
    }
  }
}

void toneAccumChainsFmaRef(Complex* dst, std::size_t n,
                           const ToneChain* chains, std::size_t count) {
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t c = 0; c < count; ++c) {
    ToneChain chain = chains[c];
    Complex* p = chain.p;
    std::size_t i = 0;
    for (; i < n4; i += 4) {
      for (int j = 0; j < 4; ++j) dst[i + j] += p[j];
      for (int j = 0; j < 4; ++j) p[j] = fmaComplexMul(p[j], chain.step);
    }
    for (std::size_t j = 0; i + j < n; ++j) dst[i + j] += p[j];
  }
}

Complex beamformDotScalar(const Complex* s, const Complex* w, std::size_t n) {
  Complex acc{};
  for (std::size_t k = 0; k < n; ++k) acc += s[k] * w[k];
  return acc;
}

void beamformRowsScalar(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)wReT;
  (void)wImT;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t a = 0; a < nAngles; ++a) {
      const Complex d = beamformDotScalar(s + r * nAnt, w + a * nAnt, nAnt);
      out[r * nAngles + a] = d.real() * d.real() + d.imag() * d.imag();
    }
  }
}

namespace {

/// A pair-chain cell as stored: \p power, or kPairNaN if it is NaN.
double pairCell(double power) { return std::isnan(power) ? kPairNaN : power; }

}  // namespace

void beamformRowsFmaRef(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)w;
  const std::size_t h = (nAngles + 1) / 2;
  const std::size_t m = nAngles / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const Complex* sr = s + r * nAnt;
    double* row = out + r * nAngles;
    for (std::size_t a = 0; a < h; ++a) {
      const double c0 = wReT[a], s0 = wImT[a];
      double sumA = sr[0].real() * c0, sumB = sr[0].imag() * s0;
      double sumC = sr[0].real() * s0, sumD = sr[0].imag() * c0;
      for (std::size_t k = 1; k < nAnt; ++k) {
        const double x = sr[k].real(), y = sr[k].imag();
        const double c = wReT[k * h + a], sn = wImT[k * h + a];
        sumA = std::fma(x, c, sumA);
        sumB = std::fma(y, sn, sumB);
        sumC = std::fma(x, sn, sumC);
        sumD = std::fma(y, c, sumD);
      }
      const double re = sumA - sumB, im = sumC + sumD;
      row[a] = pairCell(re * re + im * im);
      if (a < m) {
        const double mre = sumA + sumB, mim = sumD - sumC;
        row[nAngles - 1 - a] = pairCell(mre * mre + mim * mim);
      }
    }
  }
}

ToneSetupFn toneSetupForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
    case KernelLevel::kAvx2Fma:
      return &toneSetupAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &toneSetupScalar;
}

ToneAccumChainsFn toneAccumChainsForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return &toneAccumChainsAvx512;
    case KernelLevel::kAvx2Fma:
      return &toneAccumChainsAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &toneAccumChainsScalar;
}

BeamformRowsFn beamformRowsForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return &beamformRowsAvx512;
    case KernelLevel::kAvx2Fma:
      return &beamformRowsAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &beamformRowsScalar;
}

}  // namespace rfp::radar::detail
