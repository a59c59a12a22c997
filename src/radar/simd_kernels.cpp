/// \file simd_kernels.cpp
/// Baseline TU of the radar kernel family: the seed-exact scalar
/// variants, the portable FMA-regime emulations, and the per-level
/// registries. Compiled without target feature flags so the scalar
/// references stay bit-identical to the pre-dispatch code on every
/// host (DESIGN.md Sec. 13).

#include "radar/simd_kernels.h"

#include "common/fma_complex.h"

namespace rfp::radar::detail {

using rfp::common::simd::fmaComplexMul;
using rfp::common::simd::KernelLevel;

ToneChain toneChain(KernelLevel level, Complex phasor, Complex rot) {
  if (level == KernelLevel::kSse2) return {{phasor}, rot};
  const Complex rot2 = rot * rot;
  return {{phasor, phasor * rot, phasor * rot2, (phasor * rot) * rot2},
          rot2 * rot2};
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

Complex beamformDotFmaRef(const Complex* s, const Complex* w, std::size_t n) {
  if (n == 0) return {};
  // Each partial sum starts from its lane's first product: no +0 seeds.
  const std::size_t n4 = n & ~std::size_t{3};
  Complex acc;
  std::size_t k;
  if (n4 == 0) {
    acc = fmaComplexMul(s[0], w[0]);
    k = 1;
  } else {
    Complex p[4];
    for (int j = 0; j < 4; ++j) p[j] = fmaComplexMul(s[j], w[j]);
    for (k = 4; k < n4; ++k) p[k & 3] += fmaComplexMul(s[k], w[k]);
    acc = (p[0] + p[2]) + (p[1] + p[3]);
  }
  for (; k < n; ++k) acc += fmaComplexMul(s[k], w[k]);
  return acc;
}

namespace {

template <Complex (*Dot)(const Complex*, const Complex*, std::size_t)>
void beamformRowsWith(const Complex* s, std::size_t rows, const Complex* w,
                      std::size_t nAnt, std::size_t nAngles, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t a = 0; a < nAngles; ++a) {
      const Complex d = Dot(s + r * nAnt, w + a * nAnt, nAnt);
      out[r * nAngles + a] = d.real() * d.real() + d.imag() * d.imag();
    }
  }
}

}  // namespace

void beamformRowsScalar(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)wReT;
  (void)wImT;
  beamformRowsWith<&beamformDotScalar>(s, rows, w, nAnt, nAngles, out);
}

void beamformRowsFmaRef(const Complex* s, std::size_t rows, const Complex* w,
                        const double* wReT, const double* wImT,
                        std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)wReT;
  (void)wImT;
  beamformRowsWith<&beamformDotFmaRef>(s, rows, w, nAnt, nAngles, out);
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
