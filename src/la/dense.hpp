// Dense row-major matrices with LU (partial pivoting) and Cholesky factors.
// Used for the Nicolaides coarse problem R0·A·R0ᵀ (size K×K, K ≤ a few
// thousand) and as the reference direct solver in tests.
#pragma once

#include <span>
#include <vector>

#include "la/csr.hpp"

namespace ddmgnn::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(Index rows, Index cols, double init = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, init) {}

  static DenseMatrix identity(Index n);
  static DenseMatrix from_csr(const CsrMatrix& a);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  double& operator()(Index i, Index j) {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  double operator()(Index i, Index j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  std::span<const double> data() const { return data_; }
  std::span<double> data_mutable() { return data_; }

  /// y = A x
  void multiply(std::span<const double> x, std::span<double> y) const;

  DenseMatrix matmul(const DenseMatrix& rhs) const;
  DenseMatrix transposed() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting; solves general square systems.
class DenseLu {
 public:
  explicit DenseLu(DenseMatrix a);

  /// Solve A x = b (b overwritten strategies avoided: returns fresh vector).
  std::vector<double> solve(std::span<const double> b) const;
  void solve_inplace(std::span<double> b_to_x) const;

  Index size() const { return lu_.rows(); }
  /// |det(A)| sign-less product of pivots, used by tests for singularity.
  double abs_determinant() const;

 private:
  DenseMatrix lu_;
  std::vector<Index> piv_;
};

/// Cholesky A = L·Lᵀ for SPD matrices. Throws ContractError if a pivot is
/// non-positive (not SPD).
class DenseCholesky {
 public:
  explicit DenseCholesky(DenseMatrix a);

  std::vector<double> solve(std::span<const double> b) const;
  void solve_inplace(std::span<double> b_to_x) const;
  Index size() const { return l_.rows(); }

 private:
  DenseMatrix l_;  // lower triangle
};

}  // namespace ddmgnn::la
