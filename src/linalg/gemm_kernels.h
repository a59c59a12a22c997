#pragma once

/// \file gemm_kernels.h
/// Internal declarations of the per-ISA GEMM micro-tile kernels behind
/// linalg::gemm (DESIGN.md Sec. 13). Exposed as a header (rather than
/// file-static functions) so test_kernels can drive every level
/// explicitly regardless of the process-wide dispatch.
///
/// Packing layout contract (shared by all levels; see gemm.cpp):
///  - ap holds one op(A) row panel as kDim consecutive mrMax-wide column
///    slivers: ap[k * mrMax + ir] = op(A)(i0 + ir, k), zero-padded lanes.
///  - bp holds one nrMax-wide op(B) column panel as kDim consecutive
///    slivers: bp[k * nrMax + jr] = op(B)(k, j0 + jr), zero-padded lanes.
/// A micro-kernel accumulates the full-K product of one panel pair and
/// stores `c[ir*ldc + jr] += alpha * acc[ir][jr]` for ir < mr, jr < nr
/// (padded lanes feed accumulators that are never stored).
///
/// Numeric regimes:
///  - microKernelSse2: separate mul+add roundings per k step (the seed
///    scalar order; bit-identical to referenceGemm).
///  - microKernelAvx2 (4x4) / microKernelAvx512 (8x8): each element is a
///    single k-ascending fused-multiply-add chain, so the two vector
///    kernels are bit-identical to each other and to the portable
///    referenceGemmForLevel (gemm.h).

#include <cstddef>

namespace rfp::linalg::detail {

/// Micro-kernel signature. The packing strides (mrMax/nrMax) are fixed
/// per function: 4/4 for the SSE2 and AVX2 tiles, 8/8 for AVX-512.
using MicroKernelFn = void (*)(double* c, std::size_t ldc, const double* ap,
                               const double* bp, std::size_t kDim,
                               std::size_t mr, std::size_t nr, double alpha);

/// Seed-exact scalar 4x4 tile (x86-64 baseline codegen; gemm.cpp).
void microKernelSse2(double* c, std::size_t ldc, const double* ap,
                     const double* bp, std::size_t kDim, std::size_t mr,
                     std::size_t nr, double alpha);

#if defined(RFP_X86_KERNELS)
/// 4x4 AVX2+FMA tile (gemm_kernels_avx2.cpp; -mavx2 -mfma TU). Only
/// call when cpuFeatures() reports avx2 && fma.
void microKernelAvx2(double* c, std::size_t ldc, const double* ap,
                     const double* bp, std::size_t kDim, std::size_t mr,
                     std::size_t nr, double alpha);

/// 8x8 AVX-512F tile (gemm_kernels_avx512.cpp; -mavx512f TU). Only call
/// when cpuFeatures() reports avx512f.
void microKernelAvx512(double* c, std::size_t ldc, const double* ap,
                       const double* bp, std::size_t kDim, std::size_t mr,
                       std::size_t nr, double alpha);
#endif

}  // namespace rfp::linalg::detail
