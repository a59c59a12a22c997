#include "linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/cpuid.h"
#include "common/thread_pool.h"
#include "linalg/gemm_kernels.h"

namespace rfp::linalg {

using rfp::common::simd::KernelLevel;

namespace {

// Parallelize only when the arithmetic dwarfs the fork/join cost. Purely a
// performance threshold: the inline and pooled paths produce identical bits.
constexpr std::size_t kParallelFlops = 1u << 18;

std::atomic<int> g_kernel{static_cast<int>(GemmKernel::kTiled)};

/// The dispatch registry row tiledGemm runs with: the level's micro-tile
/// extents (which fix the packing strides) and its kernel function.
struct MicroKernelEntry {
  GemmLevelInfo info;
  detail::MicroKernelFn fn = nullptr;
};

/// Registry keyed by KernelLevel. The SSE2 baseline is always present;
/// the vector rows exist only in x86 builds and are runtime-gated by
/// cpuid before selection.
MicroKernelEntry microKernelForLevel(KernelLevel level) {
#if defined(RFP_X86_KERNELS)
  switch (level) {
    case KernelLevel::kAvx512:
      return {{KernelLevel::kAvx512, 8, 8}, &detail::microKernelAvx512};
    case KernelLevel::kAvx2Fma:
      return {{KernelLevel::kAvx2Fma, 4, 4}, &detail::microKernelAvx2};
    case KernelLevel::kSse2:
      break;
  }
#endif
  return {{KernelLevel::kSse2, 4, 4}, &detail::microKernelSse2};
}

/// N-dimension block size: how many output columns share one packed B
/// panel. A multiple of every level's nr; N-blocking never splits K, so it
/// moves no bit.
constexpr std::size_t kNc = 256;

/// Packs op(A) rows [i0, i0+mr) into ap as K consecutive mrMax-wide column
/// slivers: ap[k * mrMax + ir] = op(A)(i0 + ir, k). Lanes ir >= mr are
/// zeroed; they feed accumulators that are never written back.
void packA(std::vector<double>& ap, const Matrix& a, bool transA,
           std::size_t i0, std::size_t mr, std::size_t kDim,
           std::size_t mrMax) {
  if (ap.size() < kDim * mrMax) ap.resize(kDim * mrMax);
  double* dst = ap.data();
  if (mr < mrMax) std::fill(dst, dst + kDim * mrMax, 0.0);
  if (!transA) {
    const std::size_t lda = a.cols();
    const double* base = a.data().data();
    for (std::size_t ir = 0; ir < mr; ++ir) {
      const double* src = base + (i0 + ir) * lda;
      for (std::size_t k = 0; k < kDim; ++k) dst[k * mrMax + ir] = src[k];
    }
  } else {
    const std::size_t lda = a.cols();
    const double* base = a.data().data();
    for (std::size_t k = 0; k < kDim; ++k) {
      const double* src = base + k * lda + i0;
      for (std::size_t ir = 0; ir < mr; ++ir) dst[k * mrMax + ir] = src[ir];
    }
  }
}

/// Packs op(B) columns [j0, j0+jb) into bp as ceil(jb/nrMax) panels, each K
/// consecutive nrMax-wide row slivers: bp[(jp * K + k) * nrMax + jr] =
/// op(B)(k, j0 + jp * nrMax + jr). Edge lanes are zeroed.
void packB(std::vector<double>& bp, const Matrix& b, bool transB,
           std::size_t j0, std::size_t jb, std::size_t kDim,
           std::size_t nrMax) {
  const std::size_t panels = (jb + nrMax - 1) / nrMax;
  if (bp.size() < panels * kDim * nrMax) bp.resize(panels * kDim * nrMax);
  const std::size_t ldb = b.cols();
  const double* base = b.data().data();
  for (std::size_t jp = 0; jp < panels; ++jp) {
    double* dst = bp.data() + jp * kDim * nrMax;
    const std::size_t nr = std::min(nrMax, jb - jp * nrMax);
    if (nr < nrMax) std::fill(dst, dst + kDim * nrMax, 0.0);
    if (!transB) {
      for (std::size_t k = 0; k < kDim; ++k) {
        const double* src = base + k * ldb + j0 + jp * nrMax;
        for (std::size_t jr = 0; jr < nr; ++jr) dst[k * nrMax + jr] = src[jr];
      }
    } else {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        const double* src = base + (j0 + jp * nrMax + jr) * ldb;
        for (std::size_t k = 0; k < kDim; ++k) dst[k * nrMax + jr] = src[k];
      }
    }
  }
}

// Per-thread packing scratch. Workers each get their own A buffer; the B
// panel is packed once per column block on the calling thread and read by
// all workers (parallelFor's fork/join gives the happens-before edge).
thread_local std::vector<double> tlsAPack;
thread_local std::vector<double> tlsBPack;

void tiledGemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
               bool transB, double alpha, const MicroKernelEntry& kernel) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  if (m == 0 || n == 0) return;

  const std::size_t mrMax = kernel.info.mr;
  const std::size_t nrMax = kernel.info.nr;
  const std::size_t ldc = n;
  double* cBase = c.data().data();
  const std::size_t rowPanels = (m + mrMax - 1) / mrMax;

  auto& pool = common::ThreadPool::global();
  const bool parallel =
      pool.size() > 1 && rowPanels > 1 && 2 * m * n * kDim >= kParallelFlops;

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t jb = std::min(kNc, n - j0);
    packB(tlsBPack, b, transB, j0, jb, kDim, nrMax);
    const double* bPack = tlsBPack.data();
    const std::size_t colPanels = (jb + nrMax - 1) / nrMax;

    auto rowPanel = [&](std::size_t p) {
      const std::size_t i0 = p * mrMax;
      const std::size_t mr = std::min(mrMax, m - i0);
      packA(tlsAPack, a, transA, i0, mr, kDim, mrMax);
      const double* aPack = tlsAPack.data();
      for (std::size_t jp = 0; jp < colPanels; ++jp) {
        const std::size_t nr = std::min(nrMax, jb - jp * nrMax);
        kernel.fn(cBase + i0 * ldc + j0 + jp * nrMax, ldc, aPack,
                  bPack + jp * kDim * nrMax, kDim, mr, nr, alpha);
      }
    };

    if (parallel) {
      pool.parallelFor(0, rowPanels, rowPanel);
    } else {
      // Direct loop, not parallelFor: the pooled path wraps the body in a
      // std::function (which may allocate), and the single-thread training
      // step must stay allocation-free after warm-up.
      for (std::size_t p = 0; p < rowPanels; ++p) rowPanel(p);
    }
  }
}

/// gemm()'s kernel for products under one micro-tile of work, on
/// contiguous row-major storage: C (m x n) += alpha * op(A) * op(B), with
/// op(A) m x k and op(B) k x n. Each element runs \p level's micro-tile
/// chain -- k ascending, separate mul+add at the SSE2 baseline, one
/// std::fma chain at the FMA levels -- against op()-indexed operands,
/// skipping the packing round-trip (and its thread-local buffer traffic),
/// which dominates below one tile of work; it is added to C once, so the
/// bits equal the tiled kernel's.
void directGemm(KernelLevel level, double* c, const double* a,
                const double* b, std::size_t m, std::size_t n, std::size_t k,
                bool transA, bool transB, double alpha) {
  const bool fmaChain = level != KernelLevel::kSse2;
  const std::size_t lda = transA ? m : k;
  const std::size_t ldb = transB ? k : n;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      if (fmaChain) {
        for (std::size_t p = 0; p < k; ++p) {
          const double av = transA ? a[p * lda + i] : a[i * lda + p];
          const double bv = transB ? b[j * ldb + p] : b[p * ldb + j];
          acc = std::fma(av, bv, acc);
        }
      } else {
        for (std::size_t p = 0; p < k; ++p) {
          const double av = transA ? a[p * lda + i] : a[i * lda + p];
          const double bv = transB ? b[j * ldb + p] : b[p * ldb + j];
          acc += av * bv;
        }
      }
      c[i * n + j] += alpha == 1.0 ? acc : alpha * acc;
    }
  }
}

/// Below this many multiply-adds the packed path is all overhead; one
/// AVX-512 tile's worth (8x8x8). Perf threshold only -- both sides of the
/// cut produce identical bits.
constexpr std::size_t kDirectGemmFlops = 512;

/// Shared argument validation + beta pre-pass. Applying beta in one pass
/// over C before the product keeps the per-element combine identical
/// between the tiled and naive kernels: C = (beta-scaled C) + alpha * sum.
void prepareC(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
              bool transB, double beta) {
  const std::size_t m = transA ? a.cols() : a.rows();
  const std::size_t kA = transA ? a.rows() : a.cols();
  const std::size_t kB = transB ? b.cols() : b.rows();
  const std::size_t n = transB ? b.rows() : b.cols();
  if (kA != kB) {
    throw std::invalid_argument("gemm: inner dimension mismatch");
  }
  if (!c.data().empty() &&
      (c.data().data() == a.data().data() ||
       c.data().data() == b.data().data())) {
    throw std::invalid_argument("gemm: C must not alias A or B");
  }
  if (c.rows() != m || c.cols() != n) {
    if (beta != 0.0) {
      throw std::invalid_argument(
          "gemm: C shape mismatch with nonzero beta");
    }
    ensureShape(c, m, n);  // resize zero-fills
  } else if (beta == 0.0) {
    c.fill(0.0);
  } else if (beta != 1.0) {
    for (double& v : c.data()) v *= beta;
  }
}

}  // namespace

namespace detail {

void microKernelSse2(double* c, std::size_t ldc, const double* ap,
                     const double* bp, std::size_t kDim, std::size_t mr,
                     std::size_t nr, double alpha) {
  constexpr std::size_t kMr = 4;
  constexpr std::size_t kNr = 4;
  // mr x nr micro-tile: full-K register accumulation (k ascending, one
  // accumulator per element -- the determinism-critical property), then a
  // single `+= alpha * acc` store. Inner loops run the full kMr x kNr tile
  // so the compiler can keep acc in registers and vectorize; padded lanes
  // only feed accumulators that are never stored. Baseline codegen has no
  // FMA instruction, so each step is the seed's separate mul+add rounding.
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kDim; ++k) {
    const double* arow = ap + k * kMr;
    const double* brow = bp + k * kNr;
    for (std::size_t ir = 0; ir < kMr; ++ir) {
      const double av = arow[ir];
      for (std::size_t jr = 0; jr < kNr; ++jr) {
        acc[ir][jr] += av * brow[jr];
      }
    }
  }
  if (alpha == 1.0) {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += acc[ir][jr];
      }
    }
  } else {
    for (std::size_t ir = 0; ir < mr; ++ir) {
      for (std::size_t jr = 0; jr < nr; ++jr) {
        c[ir * ldc + jr] += alpha * acc[ir][jr];
      }
    }
  }
}

}  // namespace detail

void setGemmKernel(GemmKernel kernel) {
  g_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

GemmKernel gemmKernel() {
  return static_cast<GemmKernel>(g_kernel.load(std::memory_order_relaxed));
}

GemmLevelInfo activeGemmLevelInfo() {
  return microKernelForLevel(common::simd::activeKernelLevel()).info;
}

std::vector<GemmLevelInfo> availableGemmLevels() {
  std::vector<GemmLevelInfo> out;
  for (KernelLevel level : common::simd::availableKernelLevels()) {
    out.push_back(microKernelForLevel(level).info);
  }
  return out;
}

void gemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
          bool transB, double alpha, double beta) {
  if (gemmKernel() == GemmKernel::kNaive) {
    referenceGemm(c, a, b, transA, transB, alpha, beta);
    return;
  }
  prepareC(c, a, b, transA, transB, beta);
  const MicroKernelEntry kernel =
      microKernelForLevel(common::simd::activeKernelLevel());
  const std::size_t kDim = transA ? a.rows() : a.cols();
  if (c.rows() * c.cols() * kDim <= kDirectGemmFlops) {
    directGemm(kernel.info.level, c.data().data(), a.data().data(),
               b.data().data(), c.rows(), c.cols(), kDim, transA, transB,
               alpha);
    return;
  }
  tiledGemm(c, a, b, transA, transB, alpha, kernel);
}

void referenceGemm(Matrix& c, const Matrix& a, const Matrix& b, bool transA,
                   bool transB, double alpha, double beta) {
  prepareC(c, a, b, transA, transB, beta);
  // Seed-faithful path: materialized transposes and the i-k-j loop with
  // the data-dependent zero skip, exactly as Matrix::operator* shipped.
  const Matrix aOp = transA ? a.transposed() : a;
  const Matrix bOp = transB ? b.transposed() : b;
  Matrix product(aOp.rows(), bOp.cols());
  for (std::size_t i = 0; i < aOp.rows(); ++i) {
    for (std::size_t k = 0; k < aOp.cols(); ++k) {
      const double aik = aOp(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < bOp.cols(); ++j) {
        product(i, j) += aik * bOp(k, j);
      }
    }
  }
  if (alpha == 1.0) {
    for (std::size_t i = 0; i < c.data().size(); ++i) {
      c.data()[i] += product.data()[i];
    }
  } else {
    for (std::size_t i = 0; i < c.data().size(); ++i) {
      c.data()[i] += alpha * product.data()[i];
    }
  }
}

void referenceGemmForLevel(common::simd::KernelLevel level, Matrix& c,
                           const Matrix& a, const Matrix& b, bool transA,
                           bool transB, double alpha, double beta) {
  if (level == KernelLevel::kSse2) {
    referenceGemm(c, a, b, transA, transB, alpha, beta);
    return;
  }
  prepareC(c, a, b, transA, transB, beta);
  // FMA regime: one k-ascending std::fma chain per output element, then
  // the shared `+= alpha * acc` combine. Direct op() indexing -- packing
  // is a pure data movement and cannot change the chain.
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kDim = transA ? a.rows() : a.cols();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kDim; ++k) {
        const double av = transA ? a(k, i) : a(i, k);
        const double bv = transB ? b(j, k) : b(k, j);
        acc = std::fma(av, bv, acc);
      }
      if (alpha == 1.0) {
        c(i, j) += acc;
      } else {
        c(i, j) += alpha * acc;
      }
    }
  }
}

void axpyInPlace(Matrix& y, double alpha, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("axpyInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto xd = x.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] += alpha * xd[i];
}

void scaleInPlace(Matrix& m, double s) {
  for (double& v : m.data()) v *= s;
}

void hadamardInPlace(Matrix& y, const Matrix& x) {
  if (y.rows() != x.rows() || y.cols() != x.cols()) {
    throw std::invalid_argument("hadamardInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto xd = x.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] *= xd[i];
}

void addHadamardInPlace(Matrix& y, const Matrix& a, const Matrix& b) {
  if (y.rows() != a.rows() || y.cols() != a.cols() || a.rows() != b.rows() ||
      a.cols() != b.cols()) {
    throw std::invalid_argument("addHadamardInPlace: shape mismatch");
  }
  auto yd = y.data();
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < yd.size(); ++i) yd[i] += ad[i] * bd[i];
}

void addRowBroadcastInPlace(Matrix& m, const Matrix& row) {
  if (row.rows() != 1 || row.cols() != m.cols()) {
    throw std::invalid_argument("addRowBroadcastInPlace: row shape mismatch");
  }
  const double* r = row.data().data();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double* dst = m.data().data() + i * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) dst[c] += r[c];
  }
}

void ensureShape(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() == rows && m.cols() == cols) return;
  m.resize(rows, cols);
}

}  // namespace rfp::linalg
