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

void toneAccumScalar(Complex* dst, std::size_t n, Complex phasor,
                     Complex rot) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] += phasor;
    phasor *= rot;
  }
}

void toneAccumFmaRef(Complex* dst, std::size_t n, Complex phasor,
                     Complex rot) {
  // Lane prologue in plain (non-fused) complex arithmetic -- identical
  // in every implementation of this regime.
  const Complex rot2 = rot * rot;
  const Complex rot4 = rot2 * rot2;
  Complex p[4] = {phasor, phasor * rot, phasor * rot2, (phasor * rot) * rot2};
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    for (int j = 0; j < 4; ++j) dst[i + j] += p[j];
    for (int j = 0; j < 4; ++j) p[j] = fmaComplexMul(p[j], rot4);
  }
  for (std::size_t j = 0; i + j < n; ++j) dst[i + j] += p[j];
}

Complex beamformDotScalar(const Complex* s, const Complex* w, std::size_t n) {
  Complex acc{};
  for (std::size_t k = 0; k < n; ++k) acc += s[k] * w[k];
  return acc;
}

Complex beamformDotFmaRef(const Complex* s, const Complex* w, std::size_t n) {
  Complex p[4] = {};
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t k = 0;
  for (; k < n4; k += 4) {
    for (int j = 0; j < 4; ++j) p[j] += fmaComplexMul(s[k + j], w[k + j]);
  }
  Complex acc = (p[0] + p[2]) + (p[1] + p[3]);
  for (; k < n; ++k) acc += fmaComplexMul(s[k], w[k]);
  return acc;
}

void beamformRowScalar(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)wReT;
  (void)wImT;
  for (std::size_t a = 0; a < nAngles; ++a) {
    const Complex d = beamformDotScalar(s, w + a * nAnt, nAnt);
    out[a] = d.real() * d.real() + d.imag() * d.imag();
  }
}

void beamformRowFmaRef(const Complex* s, const Complex* w,
                       const double* wReT, const double* wImT,
                       std::size_t nAnt, std::size_t nAngles, double* out) {
  (void)wReT;
  (void)wImT;
  for (std::size_t a = 0; a < nAngles; ++a) {
    const Complex d = beamformDotFmaRef(s, w + a * nAnt, nAnt);
    out[a] = d.real() * d.real() + d.imag() * d.imag();
  }
}

ToneAccumFn toneAccumForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return &toneAccumAvx512;
    case KernelLevel::kAvx2Fma:
      return &toneAccumAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &toneAccumScalar;
}

BeamformRowFn beamformRowForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return &beamformRowAvx512;
    case KernelLevel::kAvx2Fma:
      return &beamformRowAvx2;
    case KernelLevel::kSse2:
      break;
  }
#else
  (void)level;
#endif
  return &beamformRowScalar;
}

}  // namespace rfp::radar::detail
