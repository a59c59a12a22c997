#pragma once

/// \file decompositions.h
/// Matrix factorizations and derived operations: LU solve/inverse, Cholesky,
/// symmetric eigendecomposition (cyclic Jacobi), and the PSD matrix square
/// root needed by the Frechet Inception Distance.

#include <vector>

#include "linalg/matrix.h"

namespace rfp::linalg {

/// Solves A x = b for a square non-singular A using partially pivoted LU.
/// \p b may have multiple columns. Throws std::invalid_argument on shape
/// mismatch and std::runtime_error for a (numerically) singular A.
Matrix luSolve(const Matrix& a, const Matrix& b);

/// Inverse of a square non-singular matrix via luSolve(A, I).
Matrix inverse(const Matrix& a);

/// Determinant via LU factorization.
double determinant(const Matrix& a);

/// Lower-triangular Cholesky factor L with A = L * L^T for a symmetric
/// positive-definite A. Throws std::runtime_error if A is not PD.
Matrix cholesky(const Matrix& a);

/// Eigendecomposition of a symmetric matrix.
struct SymmetricEigen {
  std::vector<double> values;  ///< eigenvalues, ascending
  Matrix vectors;              ///< column k is the eigenvector of values[k]
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. The input is
/// symmetrized as (A + A^T)/2 first to absorb round-off.
SymmetricEigen eigenSymmetric(const Matrix& a, double tol = 1e-12,
                              int maxSweeps = 100);

/// Principal square root of a symmetric positive-semidefinite matrix,
/// computed from its eigendecomposition. Small negative eigenvalues
/// (>= -clampTol) are clamped to zero; more negative values throw.
Matrix sqrtmPsd(const Matrix& a, double clampTol = 1e-9);

/// Column-wise sample mean of a data matrix (rows are observations).
std::vector<double> columnMeans(const Matrix& data);

/// Unbiased sample covariance of a data matrix (rows are observations,
/// columns are variables). Requires at least two rows.
Matrix covariance(const Matrix& data);

}  // namespace rfp::linalg
