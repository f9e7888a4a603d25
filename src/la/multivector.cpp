#include "la/multivector.hpp"

namespace ddmgnn::la {

namespace {

// Columns one pass of dot_many carries as independent add chains.
constexpr int kDotGroup = 8;

// out[w] = <x, y[w]> over n rows for W columns at once; each column's chain
// adds its rows in order from 0.0, as la::dot's serial loop does.
template <int W>
void dot_group(const double* x, const double* const* y, long n, double* out) {
  double acc[W] = {};
  for (long i = 0; i < n; ++i) {
    for (int w = 0; w < W; ++w) acc[w] += x[i] * y[w][i];
  }
  for (int w = 0; w < W; ++w) out[w] = acc[w];
}

// dot_group at a runtime width in [1, W].
template <int W = kDotGroup>
void dot_group_n(int width, const double* x, const double* const* y, long n,
                 double* out) {
  if constexpr (W > 1) {
    if (width < W) return dot_group_n<W - 1>(width, x, y, n, out);
  }
  dot_group<W>(x, y, n, out);
}

}  // namespace

MultiVector MultiVector::from_columns(
    std::span<const std::vector<double>> cols) {
  DDMGNN_CHECK(!cols.empty(), "MultiVector::from_columns: empty list");
  const Index n = static_cast<Index>(cols[0].size());
  MultiVector out(n, static_cast<Index>(cols.size()));
  for (std::size_t j = 0; j < cols.size(); ++j) {
    DDMGNN_CHECK(static_cast<Index>(cols[j].size()) == n,
                 "MultiVector::from_columns: ragged columns");
    la::copy(cols[j], out.col(static_cast<Index>(j)));
  }
  return out;
}

void MultiVector::keep_columns(std::span<const Index> keep) {
  DDMGNN_CHECK(static_cast<Index>(keep.size()) <= cols_,
               "MultiVector::keep_columns: too many columns");
  for (std::size_t c = 0; c < keep.size(); ++c) {
    const Index src = keep[c];
    DDMGNN_CHECK(src >= 0 && src < cols_ &&
                     (c == 0 || src > keep[c - 1]),
                 "MultiVector::keep_columns: indices must be strictly "
                 "increasing and in range");
    if (static_cast<Index>(c) != src) {
      la::copy(col(src), col(static_cast<Index>(c)));
    }
  }
  cols_ = static_cast<Index>(keep.size());
  data_.resize(static_cast<std::size_t>(rows_) * cols_);
}

void dot_columns(const MultiVector& x, const MultiVector& y,
                 std::span<double> out) {
  DDMGNN_CHECK(x.rows() == y.rows() && x.cols() == y.cols() &&
                   out.size() == static_cast<std::size_t>(x.cols()),
               "dot_columns: shape mismatch");
  for (Index j = 0; j < x.cols(); ++j) out[j] = la::dot(x.col(j), y.col(j));
}

void dot_many(std::span<const double> x, const MultiVector& y,
              std::span<const Index> cols, std::span<double> out) {
  DDMGNN_CHECK(static_cast<Index>(x.size()) == y.rows() &&
                   out.size() == cols.size(),
               "dot_many: shape mismatch");
  for (const Index j : cols) {
    DDMGNN_CHECK(j >= 0 && j < y.cols(), "dot_many: column out of range");
  }
  const long n = static_cast<long>(x.size());
  const std::size_t nc = cols.size();
  if (n >= kParallelThreshold && num_threads() > 1) {
    for (std::size_t k = 0; k < nc; ++k) out[k] = la::dot(x, y.col(cols[k]));
    return;
  }
  // Passes of at most kDotGroup columns of near-equal width (9 run as 5 + 4).
  const std::size_t groups = (nc + kDotGroup - 1) / kDotGroup;
  for (std::size_t g = 0, c = 0; g < groups; ++g) {
    const std::size_t left = groups - g;
    const std::size_t width = (nc - c + left - 1) / left;
    const double* yw[kDotGroup];
    for (std::size_t w = 0; w < width; ++w) yw[w] = y.col(cols[c + w]).data();
    dot_group_n(static_cast<int>(width), x.data(), yw, n, out.data() + c);
    c += width;
  }
}

void norm2_columns(const MultiVector& x, std::span<double> out) {
  DDMGNN_CHECK(out.size() == static_cast<std::size_t>(x.cols()),
               "norm2_columns: shape mismatch");
  for (Index j = 0; j < x.cols(); ++j) out[j] = la::norm2(x.col(j));
}

void axpy_columns(std::span<const double> a, const MultiVector& x,
                  MultiVector& y) {
  DDMGNN_CHECK(x.rows() == y.rows() && x.cols() == y.cols() &&
                   a.size() == static_cast<std::size_t>(x.cols()),
               "axpy_columns: shape mismatch");
  for (Index j = 0; j < x.cols(); ++j) la::axpy(a[j], x.col(j), y.col(j));
}

void xpay_columns(std::span<const double> a, const MultiVector& x,
                  MultiVector& y) {
  DDMGNN_CHECK(x.rows() == y.rows() && x.cols() == y.cols() &&
                   a.size() == static_cast<std::size_t>(x.cols()),
               "xpay_columns: shape mismatch");
  for (Index j = 0; j < x.cols(); ++j) la::xpay(x.col(j), a[j], y.col(j));
}

void copy_columns(const MultiVector& src, MultiVector& dst) {
  DDMGNN_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
               "copy_columns: shape mismatch");
  la::copy(src.data(), dst.data());
}

}  // namespace ddmgnn::la
