// Unit + property tests for the linear-algebra substrate: the dot kernels,
// CSR assembly and algebra, dense factorizations, RCM, skyline Cholesky,
// IC(0).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "la/csr.hpp"
#include "la/dense.hpp"
#include "la/ic0.hpp"
#include "la/multivector.hpp"
#include "la/rcm.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/spgemm.hpp"
#include "la/vector_ops.hpp"
#include "thread_sweep.hpp"

namespace {

using namespace ddmgnn;
using la::CooBuilder;
using la::CsrMatrix;
using la::Index;

/// Random sparse SPD matrix: diagonally dominant with symmetric off-diagonals
/// on a ring-plus-random pattern.
CsrMatrix random_spd(Index n, double density, std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder coo(n, n);
  std::vector<double> diag(n, 1.0);
  auto add_sym = [&](Index i, Index j, double v) {
    coo.add(i, j, v);
    coo.add(j, i, v);
    diag[i] += std::abs(v);
    diag[j] += std::abs(v);
  };
  for (Index i = 0; i + 1 < n; ++i) add_sym(i, i + 1, -rng.uniform(0.1, 1.0));
  const auto extra = static_cast<Index>(density * n);
  for (Index e = 0; e < extra; ++e) {
    const auto i = static_cast<Index>(rng.uniform_index(n));
    const auto j = static_cast<Index>(rng.uniform_index(n));
    if (i == j) continue;
    add_sym(i, j, -rng.uniform(0.05, 0.5));
  }
  for (Index i = 0; i < n; ++i) coo.add(i, i, diag[i]);
  return std::move(coo).build();
}

std::vector<double> random_vector(Index n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(VectorOps, DotAxpyNormBasics) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(la::dot(x, y), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(la::norm2(x), std::sqrt(14.0));
  la::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  la::xpay(x, 0.5, y);  // y = x + 0.5 y
  EXPECT_DOUBLE_EQ(y[0], 4.0);
}

TEST(VectorOps, ParallelMatchesSerialOnLargeVectors) {
  const Index n = 100000;
  auto x = random_vector(n, 1);
  auto y = random_vector(n, 2);
  double serial = 0.0;
  for (Index i = 0; i < n; ++i) serial += x[i] * y[i];
  EXPECT_NEAR(la::dot(x, y), serial, 1e-9 * std::abs(serial) + 1e-12);
}

// Above the parallel threshold dot sums each thread's contiguous block of
// the static split and adds the partials in thread order, so a repeat at any
// thread count returns the same bits (a reduction clause did not at 3+).
TEST(VectorOps, DotRepeatsBitForBitAtEveryThreadCount) {
  test::ThreadGuard guard;
#ifdef DDMGNN_TSAN
  const std::vector<int> counts{1};  // see thread_sweep.hpp
#else
  const std::vector<int> counts{1, 2, 3, 4};
#endif
  for (const Index n : {8193, 100003, 1000001}) {
    const auto x = random_vector(n, 3);
    const auto y = random_vector(n, 4);
    for (const int t : counts) {
      // The documented order: block i of t holds n/t entries, plus one for
      // the first n mod t blocks; block sums are added first to last.
      double expected = 0.0;
      for (Index i = 0, begin = 0; i < t; ++i) {
        const Index end = begin + n / t + (i < n % t ? 1 : 0);
        double part = 0.0;
        for (Index k = begin; k < end; ++k) part += x[k] * y[k];
        expected += part;
        begin = end;
      }
      set_num_threads(t);
      for (int rep = 0; rep < 200; ++rep) {
        const double got = la::dot(x, y);
        ASSERT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
            << "n=" << n << " threads=" << t << " repeat=" << rep;
      }
    }
  }
}

// dot_many carries up to eight columns as independent add chains in one pass
// and, above the parallel threshold on 2+ threads, calls dot per column;
// every column must come out bit for bit dot's, whatever the group widths
// (1-9 columns: one pass, or 5 + 4) and for a list in no particular order.
TEST(VectorOps, DotManyEqualsDotPerColumnBitForBit) {
  test::ThreadGuard guard;
  constexpr Index kCols = 12;
  std::vector<std::vector<Index>> lists;
  for (Index s = 1; s <= 9; ++s) {
    lists.emplace_back(s);
    std::iota(lists.back().begin(), lists.back().end(), Index{0});
  }
  lists.push_back({11, 2, 7, 3, 9, 0});
  for (const Index n : {2054, 8193, 100003}) {
    const auto x = random_vector(n, 5);
    la::MultiVector y(n, kCols);
    for (Index j = 0; j < kCols; ++j) {
      la::copy(random_vector(n, 100 + j), y.col(j));
    }
    for (const int t : test::sweep_threads()) {
      set_num_threads(t);
      for (const std::vector<Index>& cols : lists) {
        std::vector<double> got(cols.size());
        la::dot_many(x, y, cols, got);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const double want = la::dot(x, y.col(cols[k]));
          ASSERT_EQ(std::memcmp(&got[k], &want, sizeof want), 0)
              << "n=" << n << " threads=" << t << " columns=" << cols.size()
              << " entry " << k << ": " << got[k] << " vs " << want;
        }
      }
    }
  }
}

TEST(Csr, BuilderMergesDuplicatesAndSortsColumns) {
  CooBuilder coo(3, 3);
  coo.add(0, 2, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(0, 2, 3.0);  // duplicate -> 4.0
  coo.add(2, 1, 5.0);
  const CsrMatrix a = std::move(coo).build();
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
  // Columns sorted within row 0.
  EXPECT_EQ(a.col_idx()[0], 0);
  EXPECT_EQ(a.col_idx()[1], 2);
}

TEST(Csr, MultiplyMatchesDense) {
  const CsrMatrix a = random_spd(50, 3.0, 42);
  const auto d = la::DenseMatrix::from_csr(a);
  const auto x = random_vector(50, 3);
  std::vector<double> y1(50), y2(50);
  a.multiply(x, y1);
  d.multiply(x, y2);
  for (Index i = 0; i < 50; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, TransposeIsInvolution) {
  const CsrMatrix a = random_spd(40, 2.0, 7);
  const CsrMatrix att = a.transpose().transpose();
  ASSERT_EQ(att.nnz(), a.nnz());
  const auto x = random_vector(40, 4);
  std::vector<double> y1(40), y2(40);
  a.multiply(x, y1);
  att.multiply(x, y2);
  for (Index i = 0; i < 40; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Csr, TransposeMultiplyMatchesMultiplyTranspose) {
  const CsrMatrix a = random_spd(30, 2.0, 9);
  const auto x = random_vector(30, 5);
  std::vector<double> y1(30), y2(30);
  a.multiply_transpose(x, y1);
  a.transpose().multiply(x, y2);
  for (Index i = 0; i < 30; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-13);
}

TEST(Csr, PrincipalSubmatrixExtractsBlock) {
  const CsrMatrix a = random_spd(20, 2.0, 11);
  const std::vector<Index> keep{3, 5, 11, 17};
  const CsrMatrix s = a.principal_submatrix(keep);
  ASSERT_EQ(s.rows(), 4);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(s.at(i, j), a.at(keep[i], keep[j]));
    }
  }
}

TEST(Csr, SymmetryDefectZeroForSymmetric) {
  const CsrMatrix a = random_spd(64, 2.5, 13);
  EXPECT_EQ(a.symmetry_defect(), 0.0);
}

TEST(Dense, LuSolvesRandomSystems) {
  Rng rng(21);
  const Index n = 24;
  la::DenseMatrix a(n, n);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  for (Index i = 0; i < n; ++i) a(i, i) += n;  // well-conditioned
  const auto x_ref = random_vector(n, 22);
  std::vector<double> b(n);
  a.multiply(x_ref, b);
  const la::DenseLu lu(a);
  const auto x = lu.solve(b);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-10);
}

TEST(Dense, LuRejectsSingular) {
  la::DenseMatrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  EXPECT_THROW(la::DenseLu{a}, ContractError);
}

TEST(Dense, CholeskySolvesSpd) {
  const CsrMatrix a = random_spd(32, 2.0, 31);
  const auto x_ref = random_vector(32, 32);
  const auto b = a.apply(x_ref);
  const la::DenseCholesky chol(la::DenseMatrix::from_csr(a));
  const auto x = chol.solve(b);
  for (Index i = 0; i < 32; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
}

TEST(Dense, CholeskyRejectsIndefinite) {
  la::DenseMatrix a(2, 2, 0.0);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_THROW(la::DenseCholesky{a}, ContractError);
}

TEST(Rcm, ReducesBandwidthOnShuffledBandMatrix) {
  // Band matrix under a random permutation: RCM should recover a small band.
  const Index n = 200;
  Rng rng(5);
  std::vector<Index> shuffle(n);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  for (Index i = n - 1; i > 0; --i) {
    std::swap(shuffle[i], shuffle[rng.uniform_index(i + 1)]);
  }
  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(shuffle[i], shuffle[i], 4.0);
    for (Index d = 1; d <= 2; ++d) {
      if (i + d < n) {
        coo.add(shuffle[i], shuffle[i + d], -1.0);
        coo.add(shuffle[i + d], shuffle[i], -1.0);
      }
    }
  }
  const CsrMatrix a = std::move(coo).build();
  const auto perm = la::reverse_cuthill_mckee(a);
  const Index bw_before = la::bandwidth(a, {});
  const Index bw_after = la::bandwidth(a, perm);
  EXPECT_LE(bw_after, 8);
  EXPECT_LT(bw_after, bw_before);
  // perm is a permutation.
  std::vector<char> seen(n, 0);
  for (const Index p : perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    ASSERT_FALSE(seen[p]);
    seen[p] = 1;
  }
}

class SkylineParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SkylineParam, SolvesSpdSystems) {
  const auto [n, seed] = GetParam();
  const CsrMatrix a = random_spd(n, 2.5, seed);
  const auto x_ref = random_vector(n, seed + 1000);
  const auto b = a.apply(x_ref);
  for (const bool use_rcm : {false, true}) {
    const la::SkylineCholesky f(a, use_rcm);
    const auto x = f.solve(b);
    double err = 0.0;
    for (Index i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - x_ref[i]));
    EXPECT_LT(err, 1e-8) << "n=" << n << " rcm=" << use_rcm;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SkylineParam,
    ::testing::Values(std::tuple{5, 1}, std::tuple{17, 2}, std::tuple{64, 3},
                      std::tuple{128, 4}, std::tuple{257, 5},
                      std::tuple{512, 6}));

TEST(Skyline, RejectsIndefinite) {
  CooBuilder coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, -2.0);
  coo.add(2, 2, 1.0);
  const CsrMatrix a = std::move(coo).build();
  EXPECT_THROW(la::SkylineCholesky(a, false), ContractError);
}

TEST(Skyline, RcmEnvelopeSmallerOnShuffledBand) {
  const Index n = 300;
  Rng rng(8);
  std::vector<Index> shuffle(n);
  std::iota(shuffle.begin(), shuffle.end(), 0);
  for (Index i = n - 1; i > 0; --i)
    std::swap(shuffle[i], shuffle[rng.uniform_index(i + 1)]);
  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(shuffle[i], shuffle[i], 4.0);
    if (i + 1 < n) {
      coo.add(shuffle[i], shuffle[i + 1], -1.0);
      coo.add(shuffle[i + 1], shuffle[i], -1.0);
    }
  }
  const CsrMatrix a = std::move(coo).build();
  const la::SkylineCholesky with_rcm(a, true);
  const la::SkylineCholesky without(a, false);
  EXPECT_LT(with_rcm.envelope_size() * 5, without.envelope_size());
}

TEST(Ic0, ApplyIsSpdAndImprovesConditioning) {
  const CsrMatrix a = random_spd(100, 3.0, 77);
  const la::IncompleteCholesky0 ic(a);
  EXPECT_EQ(ic.shift(), 0.0);  // diagonally dominant: no shift needed
  // M⁻¹ should be symmetric: <M⁻¹x, y> == <x, M⁻¹y>.
  const auto x = random_vector(100, 78);
  const auto y = random_vector(100, 79);
  const auto mx = ic.apply(x);
  const auto my = ic.apply(y);
  EXPECT_NEAR(la::dot(mx, y), la::dot(x, my), 1e-10);
  // And positive: <M⁻¹x, x> > 0.
  EXPECT_GT(la::dot(mx, x), 0.0);
}

TEST(Ic0, ExactOnMatrixWhoseFactorHasNoFill) {
  // Tridiagonal SPD: IC(0) == full Cholesky -> apply is an exact solve.
  const Index n = 50;
  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.5);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  const CsrMatrix a = std::move(coo).build();
  const auto x_ref = random_vector(n, 80);
  const auto b = a.apply(x_ref);
  const la::IncompleteCholesky0 ic(a);
  const auto x = ic.apply(b);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
}

/// Random sparse rectangular matrix: ~`per_row` entries per row plus a
/// diagonal-ish band so no row is empty.
CsrMatrix random_sparse(Index rows, Index cols, Index per_row,
                        std::uint64_t seed) {
  Rng rng(seed);
  CooBuilder coo(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    coo.add(i, i % cols, rng.uniform(-1, 1));
    for (Index e = 0; e < per_row; ++e) {
      coo.add(i, static_cast<Index>(rng.uniform_index(cols)),
              rng.uniform(-1, 1));
    }
  }
  return std::move(coo).build();
}

TEST(Spgemm, MatchesDenseReference) {
  const CsrMatrix a = random_sparse(40, 25, 4, 301);
  const CsrMatrix b = random_sparse(25, 33, 3, 302);
  const CsrMatrix c = la::spgemm(a, b);
  EXPECT_EQ(c.rows(), 40);
  EXPECT_EQ(c.cols(), 33);
  const auto ref =
      la::DenseMatrix::from_csr(a).matmul(la::DenseMatrix::from_csr(b));
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), ref(i, j), 1e-12) << i << "," << j;
    }
  }
  // Column indices sorted within each row (the CSR invariant downstream
  // kernels assume).
  const auto rp = c.row_ptr();
  const auto ci = c.col_idx();
  for (Index i = 0; i < c.rows(); ++i) {
    for (la::Offset k = rp[i] + 1; k < rp[i + 1]; ++k) {
      EXPECT_LT(ci[k - 1], ci[k]);
    }
  }
}

TEST(Spgemm, GalerkinProductMatchesDenseTripleProduct) {
  const CsrMatrix a = random_spd(60, 3.0, 303);
  const CsrMatrix p = random_sparse(60, 12, 2, 304);
  const CsrMatrix ac = la::galerkin_product(a, p);
  EXPECT_EQ(ac.rows(), 12);
  EXPECT_EQ(ac.cols(), 12);
  const auto pd = la::DenseMatrix::from_csr(p);
  const auto ref =
      pd.transposed().matmul(la::DenseMatrix::from_csr(a)).matmul(pd);
  for (Index i = 0; i < 12; ++i) {
    for (Index j = 0; j < 12; ++j) {
      EXPECT_NEAR(ac.at(i, j), ref(i, j), 1e-12) << i << "," << j;
    }
  }
  // Galerkin of a symmetric A is symmetric to rounding.
  EXPECT_LE(ac.symmetry_defect(), 1e-12);
}

TEST(Transpose, IsAnInvolutionAndPreservesSymmetricPattern) {
  const CsrMatrix a = random_sparse(30, 45, 4, 305);
  const CsrMatrix att = a.transpose().transpose();
  ASSERT_EQ(att.rows(), a.rows());
  ASSERT_EQ(att.cols(), a.cols());
  ASSERT_EQ(att.nnz(), a.nnz());
  EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                         att.row_ptr().begin()));
  EXPECT_TRUE(std::equal(a.col_idx().begin(), a.col_idx().end(),
                         att.col_idx().begin()));
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    EXPECT_EQ(a.values()[k], att.values()[k]);  // bitwise: pure permutation
  }

  // On a symmetric matrix the transpose has the identical pattern.
  const CsrMatrix s = random_spd(50, 3.0, 306);
  const CsrMatrix st = s.transpose();
  ASSERT_EQ(st.nnz(), s.nnz());
  EXPECT_TRUE(std::equal(s.row_ptr().begin(), s.row_ptr().end(),
                         st.row_ptr().begin()));
  EXPECT_TRUE(std::equal(s.col_idx().begin(), s.col_idx().end(),
                         st.col_idx().begin()));
}

}  // namespace
