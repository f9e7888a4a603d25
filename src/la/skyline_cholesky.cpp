#include "la/skyline_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "la/rcm.hpp"

namespace ddmgnn::la {

SkylineCholesky::SkylineCholesky(const CsrMatrix& a, bool use_rcm) {
  DDMGNN_CHECK(a.rows() == a.cols(), "SkylineCholesky: square required");
  n_ = a.rows();
  if (use_rcm && n_ > 8) {
    perm_ = reverse_cuthill_mckee(a);
    inv_perm_.assign(n_, 0);
    for (Index p = 0; p < n_; ++p) inv_perm_[perm_[p]] = p;
  }
  const bool permuted = !perm_.empty();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();

  // Envelope profile: first[i] = min over stored-pattern columns j<=i in the
  // permuted numbering (the envelope must also cover the columns reached via
  // upper-triangle entries, which symmetry mirrors into row max(i,j)).
  first_.assign(n_, 0);
  for (Index i = 0; i < n_; ++i) first_[i] = i;
  for (Index old_i = 0; old_i < n_; ++old_i) {
    const Index i = permuted ? inv_perm_[old_i] : old_i;
    for (Offset k = rp[old_i]; k < rp[old_i + 1]; ++k) {
      const Index j = permuted ? inv_perm_[ci[k]] : ci[k];
      const Index row = std::max(i, j);
      const Index col = std::min(i, j);
      first_[row] = std::min(first_[row], col);
    }
  }
  offset_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (Index i = 0; i < n_; ++i) {
    offset_[i + 1] = offset_[i] + static_cast<std::size_t>(i - first_[i] + 1);
  }
  values_.assign(offset_[n_], 0.0);

  // Scatter A into the envelope (lower triangle of the permuted matrix).
  for (Index old_i = 0; old_i < n_; ++old_i) {
    const Index i = permuted ? inv_perm_[old_i] : old_i;
    for (Offset k = rp[old_i]; k < rp[old_i + 1]; ++k) {
      const Index j = permuted ? inv_perm_[ci[k]] : ci[k];
      if (j > i) continue;  // symmetry: lower triangle only
      values_[offset_[i] + static_cast<std::size_t>(j - first_[i])] = va[k];
    }
  }

  // In-place envelope Cholesky: row-by-row (active-column) variant.
  for (Index i = 0; i < n_; ++i) {
    double* row_i = &values_[offset_[i]];
    const Index fi = first_[i];
    for (Index j = fi; j < i; ++j) {
      const double* row_j = &values_[offset_[j]];
      const Index fj = first_[j];
      const Index lo = std::max(fi, fj);
      double acc = row_i[j - fi];
      for (Index k = lo; k < j; ++k) {
        acc -= row_i[k - fi] * row_j[k - fj];
      }
      row_i[j - fi] = acc / row_j[j - fj];
    }
    double d = row_i[i - fi];
    for (Index k = fi; k < i; ++k) {
      const double l = row_i[k - fi];
      d -= l * l;
    }
    DDMGNN_CHECK(d > 0.0, "SkylineCholesky: matrix not SPD");
    row_i[i - fi] = std::sqrt(d);
  }
}

namespace {

/// Forward L y' = y, then backward Lᵀ x = y' (column sweep over the envelope
/// rows), in place on y — shared by the fp64 and fp32 solves. y never
/// aliases the factor; saying so lets the row updates vectorize unchecked.
template <typename T>
void envelope_sweeps(Index n, const std::vector<Index>& first,
                     const std::vector<std::size_t>& offset,
                     const T* __restrict values, T* __restrict y) {
  for (Index i = 0; i < n; ++i) {
    const T* row_i = &values[offset[i]];
    const Index fi = first[i];
    T acc = y[i];
    for (Index k = fi; k < i; ++k) acc -= row_i[k - fi] * y[k];
    y[i] = acc / row_i[i - fi];
  }
  for (Index i = n - 1; i >= 0; --i) {
    const T* row_i = &values[offset[i]];
    const Index fi = first[i];
    const T xi = y[i] / row_i[i - fi];
    y[i] = xi;
    for (Index k = fi; k < i; ++k) y[k] -= row_i[k - fi] * xi;
  }
}

}  // namespace

void SkylineCholesky::solve_inplace(std::span<double> b,
                                    Scratch& scratch) const {
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(n_),
               "SkylineCholesky::solve dims");
  if (perm_.empty()) {
    envelope_sweeps(n_, first_, offset_, values_.data(), b.data());
    return;
  }
  std::vector<double>& y = scratch.y;
  y.resize(n_);
  for (Index p = 0; p < n_; ++p) y[p] = b[perm_[p]];
  envelope_sweeps(n_, first_, offset_, values_.data(), y.data());
  for (Index p = 0; p < n_; ++p) b[perm_[p]] = y[p];
}

std::vector<double> SkylineCholesky::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  Scratch scratch;
  solve_inplace(x, scratch);
  return x;
}

void SkylineCholesky::enable_fp32() {
  if (!values_f32_.empty()) return;
  values_f32_.assign(values_.begin(), values_.end());
}

void SkylineCholesky::solve_inplace_fp32(std::span<double> b,
                                         Scratch& scratch) const {
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(n_),
               "SkylineCholesky::solve dims");
  DDMGNN_CHECK(!values_f32_.empty(),
               "SkylineCholesky::solve_inplace_fp32: call enable_fp32 first");
  const bool permuted = !perm_.empty();
  std::vector<float>& y = scratch.y32;
  y.resize(n_);
  if (permuted) {
    for (Index p = 0; p < n_; ++p) y[p] = static_cast<float>(b[perm_[p]]);
  } else {
    for (Index i = 0; i < n_; ++i) y[i] = static_cast<float>(b[i]);
  }
  envelope_sweeps(n_, first_, offset_, values_f32_.data(), y.data());
  if (permuted) {
    for (Index p = 0; p < n_; ++p) b[perm_[p]] = static_cast<double>(y[p]);
  } else {
    for (Index i = 0; i < n_; ++i) b[i] = static_cast<double>(y[i]);
  }
}

}  // namespace ddmgnn::la
