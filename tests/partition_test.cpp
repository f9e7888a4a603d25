// Partitioner + coarse-space tests: cover/balance/overlap invariants across
// random meshes (parameterized), restriction operator algebra, Nicolaides
// coarse operator correctness against a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "fem/poisson.hpp"
#include "la/dense.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/aggregate.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

struct Case {
  std::uint64_t seed;
  Index parts;
  int overlap;
};

class DecompParam : public ::testing::TestWithParam<Case> {};

TEST_P(DecompParam, Invariants) {
  const auto [seed, parts, overlap] = GetParam();
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), 0.06, seed);
  const auto dec =
      partition::decompose(m.adj_ptr(), m.adj(), parts, overlap, seed);
  ASSERT_EQ(dec.num_parts, parts);
  ASSERT_EQ(dec.num_nodes(), m.num_nodes());

  // 1. Cores partition the nodes.
  std::vector<Index> core_size(parts, 0);
  for (const Index p : dec.owner) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, parts);
    ++core_size[p];
  }
  for (const Index s : core_size) EXPECT_GT(s, 0);

  // 2. Balance within a generous factor.
  EXPECT_LT(partition::balance_ratio(dec), 1.6);

  // 3. Subdomain i contains its core and is sorted/unique.
  for (Index p = 0; p < parts; ++p) {
    const auto& nodes = dec.subdomains[p];
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    EXPECT_TRUE(std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end());
    std::set<Index> in(nodes.begin(), nodes.end());
    for (Index v = 0; v < m.num_nodes(); ++v) {
      if (dec.owner[v] == p) EXPECT_TRUE(in.count(v));
    }
    // With overlap > 0, subdomain strictly exceeds core (unless whole mesh).
    if (overlap > 0 && parts > 1) {
      EXPECT_GT(static_cast<Index>(nodes.size()), core_size[p]);
    }
  }

  // 4. Multiplicity weights form a partition of unity:
  //    sum_i (R_iᵀ D_i R_i) 1 = 1.
  std::vector<double> ones(m.num_nodes(), 1.0);
  std::vector<double> accum(m.num_nodes(), 0.0);
  for (Index p = 0; p < parts; ++p) {
    for (const Index v : dec.subdomains[p]) {
      accum[v] += dec.inv_multiplicity[v];
    }
  }
  for (Index v = 0; v < m.num_nodes(); ++v) EXPECT_NEAR(accum[v], 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DecompParam,
    ::testing::Values(Case{1, 4, 2}, Case{2, 8, 2}, Case{3, 8, 4},
                      Case{4, 16, 1}, Case{5, 2, 0}, Case{6, 12, 3}));

TEST(Decomposition, OverlapMonotonicallyGrowsSubdomains) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(21), 0.06, 21);
  std::size_t prev = 0;
  for (const int ov : {0, 1, 2, 4}) {
    const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 8, ov, 21);
    std::size_t total = 0;
    for (const auto& s : dec.subdomains) total += s.size();
    EXPECT_GE(total, prev);
    prev = total;
  }
}

TEST(Decomposition, TargetSizeChoosesK) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(22), 0.05, 22);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 500, 2, 22);
  const double target_k = static_cast<double>(m.num_nodes()) / 500.0;
  EXPECT_NEAR(dec.num_parts, target_k, 1.0);
}

TEST(Decomposition, RestrictionProlongationRoundTrip) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(23), 0.08, 23);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 6, 2, 23);
  Rng rng(24);
  std::vector<double> x(m.num_nodes());
  for (double& v : x) v = rng.uniform(-1, 1);
  // Σ_i R_iᵀ D_i R_i x = x (partition of unity applied through gather/scatter).
  std::vector<double> acc(m.num_nodes(), 0.0);
  for (Index p = 0; p < dec.num_parts; ++p) {
    std::vector<double> loc(dec.subdomains[p].size());
    dec.restrict_to(p, x, loc);
    for (std::size_t l = 0; l < loc.size(); ++l) {
      loc[l] *= dec.inv_multiplicity[dec.subdomains[p][l]];
    }
    dec.prolong_add(p, loc, acc);
  }
  for (Index v = 0; v < m.num_nodes(); ++v) EXPECT_NEAR(acc[v], x[v], 1e-12);
}

TEST(CoarseSpace, MatchesDenseReference) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(31), 0.09, 31);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 5, 2, 31);
  const partition::NicolaidesCoarseSpace cs(prob.A, dec);

  // Dense reference: build R0 explicitly, compute R0 A R0ᵀ.
  const Index n = m.num_nodes();
  la::DenseMatrix r0(5, n, 0.0);
  for (Index p = 0; p < 5; ++p) {
    for (const Index v : dec.subdomains[p]) {
      r0(p, v) = dec.inv_multiplicity[v];
    }
  }
  const auto a_dense = la::DenseMatrix::from_csr(prob.A);
  const auto ref = r0.matmul(a_dense).matmul(r0.transposed());
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 5; ++j) {
      EXPECT_NEAR(cs.coarse_matrix()(i, j), ref(i, j),
                  1e-10 * (1.0 + std::abs(ref(i, j))));
    }
  }

  // apply_add equals the dense formula R0ᵀ (R0AR0ᵀ)⁻¹ R0 r.
  Rng rng(32);
  std::vector<double> r(n);
  for (double& v : r) v = rng.uniform(-1, 1);
  std::vector<double> z(n, 0.0);
  cs.apply_add(r, z);
  std::vector<double> rc(5);
  r0.multiply(r, rc);
  const la::DenseCholesky chol(ref);
  chol.solve_inplace(rc);
  std::vector<double> z_ref(n);
  r0.transposed().multiply(rc, z_ref);
  for (Index v = 0; v < n; ++v) EXPECT_NEAR(z[v], z_ref[v], 1e-9);
}

TEST(CoarseSpace, RestrictionOfConstantResidualScalesWithSubdomainMass) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(33), 0.09, 33);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 33);
  const partition::NicolaidesCoarseSpace cs(prob.A, dec);
  std::vector<double> ones(m.num_nodes(), 1.0);
  const auto rc = cs.restrict_residual(ones);
  double total = 0.0;
  for (const double v : rc) total += v;
  // Partition of unity: Σ_i (R0 1)_i = N.
  EXPECT_NEAR(total, static_cast<double>(m.num_nodes()), 1e-9);
}

TEST(Aggregate, CoversEveryNodeWithDenseAggregateIds) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(43), 0.05, 43);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto agg = partition::aggregate(prob.A, 6);
  const Index n = m.num_nodes();
  ASSERT_EQ(agg.assignment.size(), static_cast<std::size_t>(n));
  ASSERT_GT(agg.num_aggregates, 0);
  std::vector<int> size(agg.num_aggregates, 0);
  for (const Index a : agg.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, agg.num_aggregates);
    ++size[a];
  }
  for (Index a = 0; a < agg.num_aggregates; ++a) {
    EXPECT_GE(size[a], 1) << "empty aggregate " << a;  // ids are dense
  }
  // On a connected mesh graph every pass-1 seed absorbs at least one
  // neighbor and leftovers join existing aggregates, so it genuinely
  // coarsens: at most n/2 aggregates.
  EXPECT_LE(2 * agg.num_aggregates, n);
}

TEST(Aggregate, DeterministicPureFunctionOfPattern) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(44), 0.06, 44);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto a1 = partition::aggregate(prob.A, 4);
  const auto a2 = partition::aggregate(prob.A, 4);
  EXPECT_EQ(a1.num_aggregates, a2.num_aggregates);
  EXPECT_EQ(a1.assignment, a2.assignment);
  // A larger cap can only reduce (or keep) the aggregate count.
  const auto a3 = partition::aggregate(prob.A, 12);
  EXPECT_LE(a3.num_aggregates, a1.num_aggregates);
}

}  // namespace
