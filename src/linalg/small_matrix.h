#pragma once

/// \file small_matrix.h
/// Row-major matrices whose shape is fixed at compile time, in stack
/// arrays, for small algebra on a hot path (the tracker's 4-state Kalman
/// filter). Products run gemm()'s direct kernel (directGemm) at the level
/// gemm() would use, and solves run luSolve()'s steps (luSolveInPlace),
/// so every expression yields the bits it yields on Matrix with the
/// default GemmKernel::kTiled. What they skip is gemm()'s per-call
/// validation and dispatch and the Matrix wrapping around each product.

#include <array>
#include <cstddef>

#include "linalg/decompositions.h"
#include "linalg/gemm.h"

namespace rfp::linalg {

template <std::size_t R, std::size_t C>
struct SmallMatrix {
  std::array<double, R * C> v{};

  double& operator()(std::size_t r, std::size_t c) { return v[r * C + c]; }
  double operator()(std::size_t r, std::size_t c) const {
    return v[r * C + c];
  }

  static SmallMatrix identity()
    requires(R == C)
  {
    SmallMatrix m;
    for (std::size_t i = 0; i < R; ++i) m(i, i) = 1.0;
    return m;
  }

  SmallMatrix<C, R> transposed() const {
    SmallMatrix<C, R> t;
    for (std::size_t i = 0; i < R; ++i) {
      for (std::size_t j = 0; j < C; ++j) t(j, i) = (*this)(i, j);
    }
    return t;
  }

  friend SmallMatrix operator+(SmallMatrix a, const SmallMatrix& b) {
    for (std::size_t i = 0; i < R * C; ++i) a.v[i] += b.v[i];
    return a;
  }

  friend SmallMatrix operator-(SmallMatrix a, const SmallMatrix& b) {
    for (std::size_t i = 0; i < R * C; ++i) a.v[i] -= b.v[i];
    return a;
  }

  friend SmallMatrix operator*(SmallMatrix a, double s) {
    for (double& x : a.v) x *= s;
    return a;
  }
};

/// Matrix product, as Matrix::operator* computes it.
template <std::size_t M, std::size_t K, std::size_t N>
SmallMatrix<M, N> operator*(const SmallMatrix<M, K>& a,
                            const SmallMatrix<K, N>& b) {
  SmallMatrix<M, N> c;
  directGemm(activeGemmLevelInfo().level, c.v.data(), a.v.data(), b.v.data(),
             M, N, K);
  return c;
}

/// luSolve(a, b) for a fixed-size system.
template <std::size_t N, std::size_t M>
SmallMatrix<N, M> luSolve(SmallMatrix<N, N> a, const SmallMatrix<N, M>& b) {
  SmallMatrix<N, M> x;
  luSolveInPlace(a.v.data(), N, b.v.data(), M, x.v.data());
  return x;
}

}  // namespace rfp::linalg
