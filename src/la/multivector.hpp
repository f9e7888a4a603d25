// Block vector for multi-RHS solves: s right-hand sides / iterates stored
// column-major (each column contiguous, column j at data()[j*rows()]). This
// is the currency of the batched solve engine — CsrMatrix::apply_many runs
// one SpMM over all columns, Preconditioner::apply_many preconditions the
// whole block (for Additive Schwarz: all K×s local solves in one parallel
// region), and solver/block_krylov advances every column per Krylov
// iteration.
//
// The fused kernels below intentionally reuse the scalar vector_ops kernels
// column-by-column so a lockstep block iteration reproduces the scalar
// iteration bit-for-bit (the block-PCG-matches-PCG test relies on this).
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"

namespace ddmgnn::la {

class MultiVector {
 public:
  MultiVector() = default;
  MultiVector(Index rows, Index cols, double init = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, init) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// Reshape, preserving nothing (contents unspecified afterwards).
  void resize(Index rows, Index cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows) * cols);
  }

  std::span<double> col(Index j) {
    return {data_.data() + static_cast<std::size_t>(j) * rows_,
            static_cast<std::size_t>(rows_)};
  }
  std::span<const double> col(Index j) const {
    return {data_.data() + static_cast<std::size_t>(j) * rows_,
            static_cast<std::size_t>(rows_)};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  double& at(Index i, Index j) {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  double at(Index i, Index j) const {
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  void fill(double v) { la::fill(data_, v); }

  /// Pack a list of equal-length vectors as columns.
  static MultiVector from_columns(std::span<const std::vector<double>> cols);

  /// Drop every column not listed in `keep` (strictly increasing indices);
  /// kept columns are compacted left in order. This is the deflation
  /// primitive: converged RHS leave the working block.
  void keep_columns(std::span<const Index> keep);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// out[j] = <x_j, y_j> for every column pair.
void dot_columns(const MultiVector& x, const MultiVector& y,
                 std::span<double> out);

/// out[k] = <x, y_{cols[k]}> for every listed column of y, each bit for bit
/// la::dot(x, y.col(cols[k])). Below kParallelThreshold rows or on one
/// thread, one pass over x carries up to eight columns as independent add
/// chains, each in la::dot's row order; otherwise it calls la::dot per column.
void dot_many(std::span<const double> x, const MultiVector& y,
              std::span<const Index> cols, std::span<double> out);

/// out[j] = ||x_j||₂.
void norm2_columns(const MultiVector& x, std::span<double> out);

/// y_j += a[j] · x_j (the fused multi-RHS axpy).
void axpy_columns(std::span<const double> a, const MultiVector& x,
                  MultiVector& y);

/// y_j = x_j + a[j] · y_j (the fused p-update of block CG).
void xpay_columns(std::span<const double> a, const MultiVector& x,
                  MultiVector& y);

/// dst = src (shapes must match).
void copy_columns(const MultiVector& src, MultiVector& dst);

}  // namespace ddmgnn::la
