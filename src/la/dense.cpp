#include "la/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ddmgnn::la {

DenseMatrix DenseMatrix::identity(Index n) {
  DenseMatrix m(n, n, 0.0);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::from_csr(const CsrMatrix& a) {
  DenseMatrix m(a.rows(), a.cols(), 0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (Index i = 0; i < a.rows(); ++i) {
    for (Offset k = rp[i]; k < rp[i + 1]; ++k) m(i, ci[k]) = v[k];
  }
  return m;
}

void DenseMatrix::multiply(std::span<const double> x,
                           std::span<double> y) const {
  DDMGNN_CHECK(x.size() == static_cast<std::size_t>(cols_) &&
                   y.size() == static_cast<std::size_t>(rows_),
               "DenseMatrix::multiply dims");
  for (Index i = 0; i < rows_; ++i) {
    double acc = 0.0;
    const double* row = &data_[static_cast<std::size_t>(i) * cols_];
    for (Index j = 0; j < cols_; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

DenseMatrix DenseMatrix::matmul(const DenseMatrix& rhs) const {
  DDMGNN_CHECK(cols_ == rhs.rows(), "matmul dims");
  DenseMatrix out(rows_, rhs.cols(), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    for (Index k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (Index j = 0; j < rhs.cols(); ++j) out(i, j) += aik * rhs(k, j);
    }
  }
  return out;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix out(cols_, rows_);
  for (Index i = 0; i < rows_; ++i)
    for (Index j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  return out;
}

DenseLu::DenseLu(DenseMatrix a) : lu_(std::move(a)), piv_(lu_.rows()) {
  DDMGNN_CHECK(lu_.rows() == lu_.cols(), "DenseLu: square required");
  const Index n = lu_.rows();
  for (Index i = 0; i < n; ++i) piv_[i] = i;
  for (Index k = 0; k < n; ++k) {
    // Partial pivoting: find the largest magnitude in column k.
    Index p = k;
    double best = std::abs(lu_(k, k));
    for (Index i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    DDMGNN_CHECK(best > 0.0, "DenseLu: singular matrix");
    if (p != k) {
      for (Index j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
      std::swap(piv_[k], piv_[p]);
    }
    const double inv = 1.0 / lu_(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const double m = lu_(i, k) * inv;
      lu_(i, k) = m;
      if (m == 0.0) continue;
      for (Index j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
    }
  }
}

void DenseLu::solve_inplace(std::span<double> b) const {
  const Index n = lu_.rows();
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(n), "DenseLu::solve dims");
  // Apply the row permutation.
  std::vector<double> y(n);
  for (Index i = 0; i < n; ++i) y[i] = b[piv_[i]];
  // Forward substitution with the unit lower factor.
  for (Index i = 0; i < n; ++i) {
    double acc = y[i];
    for (Index j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  for (Index i = n - 1; i >= 0; --i) {
    double acc = y[i];
    for (Index j = i + 1; j < n; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc / lu_(i, i);
  }
  std::copy(y.begin(), y.end(), b.begin());
}

std::vector<double> DenseLu::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_inplace(x);
  return x;
}

double DenseLu::abs_determinant() const {
  double d = 1.0;
  for (Index i = 0; i < lu_.rows(); ++i) d *= std::abs(lu_(i, i));
  return d;
}

DenseCholesky::DenseCholesky(DenseMatrix a) : l_(std::move(a)) {
  DDMGNN_CHECK(l_.rows() == l_.cols(), "DenseCholesky: square required");
  const Index n = l_.rows();
  for (Index j = 0; j < n; ++j) {
    double d = l_(j, j);
    for (Index k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    DDMGNN_CHECK(d > 0.0, "DenseCholesky: matrix not SPD");
    const double ljj = std::sqrt(d);
    l_(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (Index i = j + 1; i < n; ++i) {
      double acc = l_(i, j);
      for (Index k = 0; k < j; ++k) acc -= l_(i, k) * l_(j, k);
      l_(i, j) = acc * inv;
    }
    for (Index k = j + 1; k < n; ++k) l_(j, k) = 0.0;  // keep strict lower
  }
}

void DenseCholesky::solve_inplace(std::span<double> b) const {
  const Index n = l_.rows();
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(n),
               "DenseCholesky::solve dims");
  // L y = b
  for (Index i = 0; i < n; ++i) {
    double acc = b[i];
    for (Index j = 0; j < i; ++j) acc -= l_(i, j) * b[j];
    b[i] = acc / l_(i, i);
  }
  // Lᵀ x = y
  for (Index i = n - 1; i >= 0; --i) {
    double acc = b[i];
    for (Index j = i + 1; j < n; ++j) acc -= l_(j, i) * b[j];
    b[i] = acc / l_(i, i);
  }
}

std::vector<double> DenseCholesky::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_inplace(x);
  return x;
}

}  // namespace ddmgnn::la
