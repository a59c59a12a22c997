#include "linalg/decompositions.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace rfp::linalg {

namespace {

/// Small systems solve out of stack scratch; only larger ones (FID
/// covariances and the like) touch the heap.
constexpr std::size_t kInlineLuDim = 16;

/// In-place partially pivoted LU factorization of the n x n row-major
/// \p lu (overwritten with the combined unit-diagonal L and U), with the
/// row permutation in \p perm (n slots). Returns the permutation parity
/// (for determinants). Raw-storage form so the hot callers can keep the
/// matrix and the permutation in stack scratch.
double luFactorizeInPlace(double* lu, std::size_t n, std::size_t* perm) {
  std::iota(perm, perm + n, std::size_t{0});
  double permSign = 1.0;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining entry in column k up.
    std::size_t pivot = k;
    double best = std::fabs(lu[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::fabs(lu[i * n + k]) > best) {
        best = std::fabs(lu[i * n + k]);
        pivot = i;
      }
    }
    if (best < 1e-300) {
      throw std::runtime_error("luSolve: matrix is singular");
    }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu[k * n + j], lu[pivot * n + j]);
      }
      std::swap(perm[k], perm[pivot]);
      permSign = -permSign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      lu[i * n + k] /= lu[k * n + k];
      const double lik = lu[i * n + k];
      if (lik == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu[i * n + j] -= lik * lu[k * n + j];
      }
    }
  }
  return permSign;
}

/// Solves the n x n system A X = B by partially pivoted LU, with A and B
/// (n x m) row-major, into \p x (n x m); \p a is overwritten with its LU
/// factors.
void luSolveInPlace(double* a, std::size_t n, const double* b,
                    std::size_t m, double* x) {
  std::size_t permInline[kInlineLuDim];
  std::vector<std::size_t> permHeap;
  std::size_t* perm = permInline;
  double yInline[kInlineLuDim];
  std::vector<double> yHeap;
  double* y = yInline;
  if (n > kInlineLuDim) {
    permHeap.resize(n);
    perm = permHeap.data();
    yHeap.resize(n);
    y = yHeap.data();
  }

  luFactorizeInPlace(a, n, perm);
  const double* lu = a;
  for (std::size_t c = 0; c < m; ++c) {
    // Forward substitution with the permuted rhs.
    for (std::size_t i = 0; i < n; ++i) {
      double s = b[perm[i] * m + c];
      for (std::size_t j = 0; j < i; ++j) s -= lu[i * n + j] * y[j];
      y[i] = s;
    }
    // Back substitution.
    for (std::size_t i = n; i-- > 0;) {
      double s = y[i];
      for (std::size_t j = i + 1; j < n; ++j) {
        s -= lu[i * n + j] * x[j * m + c];
      }
      x[i * m + c] = s / lu[i * n + i];
    }
  }
}

void requireSquare(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LU factorization requires a square matrix");
  }
}

}  // namespace

Matrix luSolve(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("luSolve: rhs row count mismatch");
  }
  requireSquare(a);
  Matrix lu = a;
  Matrix x(a.rows(), b.cols());
  luSolveInPlace(lu.data().data(), a.rows(), b.data().data(), b.cols(),
                 x.data().data());
  return x;
}

Matrix inverse(const Matrix& a) {
  return luSolve(a, Matrix::identity(a.rows()));
}

double determinant(const Matrix& a) {
  requireSquare(a);
  const std::size_t n = a.rows();
  std::size_t permInline[kInlineLuDim];
  std::vector<std::size_t> permHeap;
  std::size_t* perm = permInline;
  if (n > kInlineLuDim) {
    permHeap.resize(n);
    perm = permHeap.data();
  }
  Matrix lu = a;
  double det;
  try {
    det = luFactorizeInPlace(lu.data().data(), n, perm);
  } catch (const std::runtime_error&) {
    return 0.0;
  }
  for (std::size_t i = 0; i < n; ++i) det *= lu(i, i);
  return det;
}

Matrix cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) {
          throw std::runtime_error("cholesky: matrix is not positive definite");
        }
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

SymmetricEigen eigenSymmetric(const Matrix& input, double tol, int maxSweeps) {
  if (input.rows() != input.cols()) {
    throw std::invalid_argument("eigenSymmetric requires a square matrix");
  }
  const std::size_t n = input.rows();

  // Symmetrize to absorb round-off in callers that build A = B * B^T etc.
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = 0.5 * (input(i, j) + input(j, i));
    }
  }
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += a(i, j) * a(i, j);
    }
    if (std::sqrt(off) <= tol * std::max(1.0, a.frobeniusNorm())) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::fabs(a(p, q)) <= 1e-300) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the Givens rotation to rows/cols p and q of A.
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a(k, p);
          const double akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a(p, k);
          const double aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i) < a(j, j);
  });

  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.values[k] = a(order[k], order[k]);
    for (std::size_t r = 0; r < n; ++r) out.vectors(r, k) = v(r, order[k]);
  }
  return out;
}

Matrix sqrtmPsd(const Matrix& a, double clampTol) {
  const SymmetricEigen eig = eigenSymmetric(a);
  const std::size_t n = a.rows();
  std::vector<double> sqrtVals(n);
  for (std::size_t i = 0; i < n; ++i) {
    double lambda = eig.values[i];
    if (lambda < 0.0) {
      if (lambda < -clampTol * std::max(1.0, std::fabs(eig.values.back()))) {
        throw std::runtime_error("sqrtmPsd: matrix has a negative eigenvalue");
      }
      lambda = 0.0;
    }
    sqrtVals[i] = std::sqrt(lambda);
  }
  const Matrix d = Matrix::diagonal(sqrtVals);
  return eig.vectors * d * eig.vectors.transposed();
}

std::vector<double> columnMeans(const Matrix& data) {
  std::vector<double> mu(data.cols(), 0.0);
  if (data.rows() == 0) return mu;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t j = 0; j < data.cols(); ++j) mu[j] += data(i, j);
  }
  for (double& m : mu) m /= static_cast<double>(data.rows());
  return mu;
}

Matrix covariance(const Matrix& data) {
  if (data.rows() < 2) {
    throw std::invalid_argument("covariance: need at least two observations");
  }
  const std::vector<double> mu = columnMeans(data);
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  Matrix cov(d, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      const double da = data(i, a) - mu[a];
      if (da == 0.0) continue;
      for (std::size_t b = 0; b < d; ++b) {
        cov(a, b) += da * (data(i, b) - mu[b]);
      }
    }
  }
  cov *= 1.0 / static_cast<double>(n - 1);
  return cov;
}

}  // namespace rfp::linalg
