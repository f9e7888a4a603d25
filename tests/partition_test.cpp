// Partitioner + coarse-space tests: cover/balance/overlap invariants across
// random meshes (parameterized), restriction operator algebra, Nicolaides
// coarse operator correctness against a dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

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
      if (dec.owner[v] == p) {
        EXPECT_TRUE(in.count(v));
      }
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

/// FNV-1a (64-bit) over every field of a Decomposition: num_parts, the
/// owners, each subdomain's size and ids, and the bits of the weights. Each
/// value is fed as eight little-endian bytes, so the digest is host-neutral.
std::uint64_t fingerprint(const partition::Decomposition& d) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  auto feed_index = [&feed](Index v) {
    feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  };
  feed_index(d.num_parts);
  for (const Index p : d.owner) feed_index(p);
  for (const auto& nodes : d.subdomains) {
    feed(nodes.size());
    for (const Index v : nodes) feed_index(v);
  }
  for (const double w : d.inv_multiplicity) {
    feed(std::bit_cast<std::uint64_t>(w));
  }
  return h;
}

/// Two disjoint mesh blobs in one graph (ids of the second offset by the
/// first's node count): the partitioner's disconnected-leftover path.
partition::AdjacencyGraph two_blob_graph() {
  const mesh::Mesh m1 = mesh::generate_mesh(mesh::random_domain(13), 0.12, 13);
  const mesh::Mesh m2 = mesh::generate_mesh(mesh::random_domain(14), 0.12, 14);
  partition::AdjacencyGraph g;
  g.ptr.push_back(0);
  Index offset = 0;
  for (const mesh::Mesh* m : {&m1, &m2}) {
    for (Index v = 0; v < m->num_nodes(); ++v) {
      for (la::Offset e = m->adj_ptr()[v]; e < m->adj_ptr()[v + 1]; ++e) {
        g.idx.push_back(m->adj()[e] + offset);
      }
      g.ptr.push_back(static_cast<la::Offset>(g.idx.size()));
    }
    offset += m->num_nodes();
  }
  return g;
}

// The partition is a pure function of (graph, K, overlap, seed). These
// digests pin every bit of it on graphs where K reaches the hundreds, where
// isolated Dirichlet rows take the leftover path, and where the graph falls
// apart, so a change to how decompose computes its passes cannot move one
// subdomain, factor or iteration count without failing here.
TEST(Decomposition, FingerprintIsPinned) {
  // perfbench's problem recipe at ~20k nodes: the training element size on
  // a blob whose radius grows with N (mesh seed 7).
  const mesh::Domain unit = mesh::random_domain(7);
  const double h = std::sqrt(unit.area() / (0.8660254 * 1000.0));
  const mesh::Mesh m =
      mesh::generate_mesh(mesh::random_domain(7, std::sqrt(20.0)), h, 7);
  ASSERT_EQ(m.num_nodes(), 20185) << "the input mesh changed, not decompose";
  ASSERT_EQ(m.adj().size(), 119942u) << "the input mesh changed, not decompose";
  // Default assembly eliminates Dirichlet couplings: those rows are isolated.
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const partition::AdjacencyGraph algebraic =
      partition::matrix_adjacency(prob.A);
  Index isolated = 0;
  for (Index v = 0; v < algebraic.num_nodes(); ++v) {
    isolated += algebraic.ptr[v + 1] == algebraic.ptr[v] ? 1 : 0;
  }
  ASSERT_GT(isolated, 0);

  struct Pin {
    const char* graph;
    Index target_size;
    int overlap;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"mesh", 150, 0, 0x5edcfef9277c7071ull},
      {"mesh", 150, 2, 0x6e1da4964b22c547ull},
      {"mesh", 350, 0, 0x13cb3f5a11909b2eull},
      {"mesh", 350, 2, 0xb7329f2d0e86f49eull},
      {"algebraic", 150, 0, 0xa7c1a1ad0f2d2a0aull},
      {"algebraic", 150, 2, 0x3d1c2e0bb7460ce2ull},
      {"algebraic", 350, 0, 0xe42695f02685612bull},
      {"algebraic", 350, 2, 0xcec565cadb01b672ull},
  };
  for (const Pin& pin : pins) {
    const bool mesh_graph = std::string(pin.graph) == "mesh";
    const auto dec =
        mesh_graph ? partition::decompose_target_size(
                         m.adj_ptr(), m.adj(), pin.target_size, pin.overlap, 3)
                   : partition::decompose_target_size(
                         algebraic.ptr, algebraic.idx, pin.target_size,
                         pin.overlap, 3);
    EXPECT_EQ(fingerprint(dec), pin.digest)
        << pin.graph << " graph, Ns " << pin.target_size << ", overlap "
        << pin.overlap << ": 0x" << std::hex << fingerprint(dec);
  }

  const partition::AdjacencyGraph blobs = two_blob_graph();
  const auto dec = partition::decompose(blobs.ptr, blobs.idx, 6, 2, 13);
  EXPECT_EQ(fingerprint(dec), 0x8d48b29372b48b7cull)
      << "two blobs: 0x" << std::hex << fingerprint(dec);
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
