#pragma once

/// \file matrix.h
/// Dense row-major matrix of doubles. This is the numeric workhorse shared
/// by the FID metric, the assignment solver, and the neural-network layers.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace rfp::linalg {

namespace detail {

/// Storage for Matrix with a small-buffer optimization: anything up to
/// 16 doubles (a 4x4 block, a short vector) lives inline, so small
/// temporary products never touch the allocator. Larger
/// matrices (GEMM/NN workloads) fall through to a heap vector. Which
/// storage is active is a pure function of size(), and every mutation
/// goes through assign()/resize() followed by a full overwrite, so the
/// arithmetic above this container is untouched -- same values, same
/// order, bit-identical results.
class MatrixStore {
 public:
  static constexpr std::size_t kInlineDoubles = 16;

  MatrixStore() = default;
  MatrixStore(std::size_t n, double fill) { assign(n, fill); }
  MatrixStore(const MatrixStore& o) { *this = o; }
  MatrixStore(MatrixStore&& o) noexcept { *this = std::move(o); }
  MatrixStore& operator=(const MatrixStore& o) {
    if (this == &o) return *this;
    resizeRaw(o.size_);
    std::copy(o.data(), o.data() + o.size_, data());
    return *this;
  }
  MatrixStore& operator=(MatrixStore&& o) noexcept {
    if (this == &o) return *this;
    if (o.size_ > kInlineDoubles) {
      heap_ = std::move(o.heap_);
    } else {
      resizeRaw(o.size_);
      std::copy(o.inline_, o.inline_ + o.size_, data());
    }
    size_ = o.size_;
    o.size_ = 0;
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() { return size_ <= kInlineDoubles ? inline_ : heap_.data(); }
  const double* data() const {
    return size_ <= kInlineDoubles ? inline_ : heap_.data();
  }
  double& operator[](std::size_t i) { return data()[i]; }
  double operator[](std::size_t i) const { return data()[i]; }
  double* begin() { return data(); }
  double* end() { return data() + size_; }
  const double* begin() const { return data(); }
  const double* end() const { return data() + size_; }

  /// Sets the size and overwrites every element with \p v.
  void assign(std::size_t n, double v) {
    resizeRaw(n);
    std::fill(data(), data() + n, v);
  }

 private:
  /// Sets the size and secures storage; contents are unspecified until
  /// the caller overwrites them (every caller does).
  void resizeRaw(std::size_t n) {
    if (n > kInlineDoubles && heap_.size() < n) heap_.resize(n);
    size_ = n;
  }

  double inline_[kInlineDoubles];
  std::vector<double> heap_;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Dense matrix with value semantics. Sizes are fixed at construction;
/// element access is bounds-checked in at() and unchecked in operator().
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix filled with \p fill.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Construction from nested initializer lists:
  /// Matrix m{{1, 2}, {3, 4}}; Throws on ragged rows.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  /// Diagonal matrix from a vector of diagonal entries.
  static Matrix diagonal(std::span<const double> diag);

  /// Column vector (n x 1) from values.
  static Matrix columnVector(std::span<const double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows x cols with every element zeroed. Reuses the
  /// existing allocation when capacity suffices, which keeps workspace
  /// buffers allocation-free once warmed up.
  void resize(std::size_t rows, std::size_t cols);

  /// Sets every element to \p value without reallocating.
  void fill(double value);

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw storage (row-major).
  std::span<double> data() { return {data_.data(), data_.size()}; }
  std::span<const double> data() const {
    return {data_.data(), data_.size()};
  }

  Matrix operator+(const Matrix& o) const;
  Matrix operator-(const Matrix& o) const;
  Matrix operator*(const Matrix& o) const;  ///< matrix product
  Matrix operator*(double s) const;
  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  /// Element-wise (Hadamard) product.
  Matrix hadamard(const Matrix& o) const;

  Matrix transposed() const;

  /// Trace of a square matrix; throws for non-square.
  double trace() const;

  /// Frobenius norm.
  double frobeniusNorm() const;

  /// Largest absolute difference with another same-shape matrix.
  double maxAbsDiff(const Matrix& o) const;

  /// True when shapes match and every entry differs by at most \p tol.
  bool approxEquals(const Matrix& o, double tol) const;

 private:
  void requireSameShape(const Matrix& o, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  detail::MatrixStore data_;
};

Matrix operator*(double s, const Matrix& m);

}  // namespace rfp::linalg
