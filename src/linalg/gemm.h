#pragma once

/// \file gemm.h
/// Destination-passing GEMM and in-place element-wise kernels: the numeric
/// hot path under the neural-network layers (and, via Matrix::operator*,
/// under every legacy matrix product in the FID code).
///
/// gemm computes C = beta * C + alpha * op(A) * op(B) with op() selected by
/// transpose *flags*, so gradient products like X^T * dY never materialize
/// a transposed copy. The tiled kernel packs A row-panels and B column
/// panels into contiguous buffers and accumulates each output element over
/// the full K extent in registers, strictly k-ascending -- the same
/// per-element floating-point order as the seed i-k-j loop -- so its output
/// is bit-identical to the naive reference for finite inputs and, because
/// parallelism only splits the M dimension (disjoint rows, unchanged
/// per-row order), bit-identical at any thread count (DESIGN.md Sec. 8/9).
///
/// Determinism note: cache blocking deliberately never splits K. Splitting
/// K would accumulate partial sums into C in a different order than the
/// reference kernel and break the bit-identity contract; blocking over M
/// (row panels across threads) and N (256-column panels) leaves
/// every element's accumulation order untouched.
///
/// ISA dispatch (DESIGN.md Sec. 13). The micro-tile is a cpuid-dispatched
/// kernel family selected by `common::simd::activeKernelLevel()`
/// (RFP_KERNEL override): an SSE2-baseline scalar tile (bit-identical to
/// referenceGemm), a 4x4 AVX2+FMA tile, and an 8x8 AVX-512 tile. The two
/// FMA tiles accumulate each element as one fused-multiply-add chain over
/// the full K extent, so they are bit-identical to *each other* and to
/// the portable `referenceGemmForLevel` emulation, and differ from the
/// SSE2 level only by the documented product-rounding tolerance. Within
/// any level, output stays bit-identical at every thread count.

#include <cstddef>
#include <vector>

#include "common/cpuid.h"
#include "linalg/matrix.h"

namespace rfp::linalg {

/// Kernel selection, primarily for benchmarks and bit-identity tests.
/// kTiled is the packed/blocked production kernel; kNaive reproduces the
/// seed behaviour exactly (materialized transposes, i-k-j loop with the
/// data-dependent `aik == 0.0` skip, temporary accumulation matrix).
enum class GemmKernel { kTiled, kNaive };

/// Switches the kernel gemm() dispatches to. Not meant to be flipped
/// concurrently with in-flight gemm calls.
void setGemmKernel(GemmKernel kernel);
GemmKernel gemmKernel();

/// C = beta * C + alpha * op(A) * op(B); op(X) = X or X^T per flag.
/// C is resized (reusing capacity) when beta == 0; with beta != 0 its shape
/// must already match. C must not alias A or B (throws
/// std::invalid_argument). beta == 0 overwrites C entirely (stale NaNs do
/// not propagate); beta == 1 adds the full product without touching the
/// existing values before the final per-element addition.
void gemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA = false,
          bool transB = false, double alpha = 1.0, double beta = 0.0);

/// The seed-faithful naive kernel behind GemmKernel::kNaive, exposed so
/// tests can compare the tiled kernel against it regardless of the global
/// kernel switch.
void referenceGemm(Matrix& c, const Matrix& a, const Matrix& b,
                   bool transA = false, bool transB = false,
                   double alpha = 1.0, double beta = 0.0);

// --- ISA-level registry -----------------------------------------------------

/// One entry of the dispatched micro-kernel family: the ISA level it
/// needs and its micro-tile extents (mr x nr doubles).
struct GemmLevelInfo {
  common::simd::KernelLevel level = common::simd::KernelLevel::kSse2;
  std::size_t mr = 4;
  std::size_t nr = 4;
};

/// The micro-kernel gemm() would dispatch to right now (i.e. for
/// common::simd::activeKernelLevel()). Recorded by benchmarks and the
/// service ledger header.
GemmLevelInfo activeGemmLevelInfo();

/// Registry of micro-kernels this *host* can run, narrowest first
/// (always contains the SSE2 baseline). What test_kernels and
/// bench_ext_kernels sweep.
std::vector<GemmLevelInfo> availableGemmLevels();

/// Portable scalar reference with the exact FP semantics of \p level:
/// kSse2 delegates to referenceGemm (separate mul+add roundings);
/// kAvx2Fma/kAvx512 accumulate each output element as a single
/// k-ascending std::fma chain -- the contract the vector kernels are
/// memcmp-tested against (DESIGN.md Sec. 13). Same argument rules as
/// gemm().
void referenceGemmForLevel(common::simd::KernelLevel level, Matrix& c,
                           const Matrix& a, const Matrix& b,
                           bool transA = false, bool transB = false,
                           double alpha = 1.0, double beta = 0.0);

// --- in-place element-wise kernels ------------------------------------------
// All throw std::invalid_argument on shape mismatch and perform the same
// per-element operation (and rounding) as their copying Matrix/ops
// counterparts.

/// y += alpha * x.
void axpyInPlace(Matrix& y, double alpha, const Matrix& x);

/// m *= s.
void scaleInPlace(Matrix& m, double s);

/// y[i] *= x[i].
void hadamardInPlace(Matrix& y, const Matrix& x);

/// y += a .* b (single add of the rounded product, as `y += a.hadamard(b)`).
void addHadamardInPlace(Matrix& y, const Matrix& a, const Matrix& b);

/// Adds the 1 x C row vector to every row of m.
void addRowBroadcastInPlace(Matrix& m, const Matrix& row);

/// Reshapes m to rows x cols *only if the shape differs*, reusing the
/// existing allocation when capacity suffices (new elements are zero).
/// The workspace warm-up primitive: after the first call with the steady
/// shape, subsequent calls are no-ops and allocation-free.
void ensureShape(Matrix& m, std::size_t rows, std::size_t cols);

}  // namespace rfp::linalg
