// SessionCache behavior: hits return the *same* prepared session (setup not
// re-paid), distinct operators and configs miss, LRU eviction respects the
// byte budget, evicted-but-held sessions stay usable (aliased ownership),
// and a cached session still passes the solve_many block-vs-sequential
// equivalence.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/session_cache.hpp"
#include "fem/poisson.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"

namespace {

using namespace ddmgnn;
using la::Index;

la::CsrMatrix grid_laplacian(Index side, double shift) {
  const Index n = side * side;
  la::CooBuilder coo(n, n);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index i = r * side + c;
      coo.add(i, i, 4.0 + shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

core::HybridConfig lu_config() {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;
  return cfg;
}

TEST(SessionCache, HitReturnsSamePreparedSessionWithoutReSetup) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();

  auto s1 = cache.get_or_setup(A, cfg);
  ASSERT_TRUE(s1->ready());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const double setup_s = s1->setup_seconds();
  EXPECT_GT(setup_s, 0.0);

  auto s2 = cache.get_or_setup(A, cfg);
  // The same object, not an equivalent rebuild: setup was not re-paid.
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(s2->setup_seconds(), setup_s);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // The cached session solves correctly against its own operator copy even
  // if the caller's matrix is gone.
  const std::vector<double> ones(A.rows(), 1.0);
  const std::vector<double> b = A.apply(ones);
  std::vector<double> x(A.rows(), 0.0);
  const auto res = s2->solve(b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < A.rows(); i += 37) {
    EXPECT_NEAR(x[i], 1.0, 1e-6) << i;
  }
}

TEST(SessionCache, DistinctOperatorsAndConfigsMiss) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix a0 = grid_laplacian(20, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(20, 1.0);   // same pattern, new vals
  const la::CsrMatrix a2 = grid_laplacian(21, 0.0);   // new shape
  const core::HybridConfig cfg = lu_config();

  auto s0 = cache.get_or_setup(a0, cfg);
  auto s1 = cache.get_or_setup(a1, cfg);
  auto s2 = cache.get_or_setup(a2, cfg);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_NE(s0.get(), s1.get());
  EXPECT_NE(s1.get(), s2.get());

  // A config change re-keys even on the same operator.
  core::HybridConfig looser = cfg;
  looser.rel_tol = 1e-4;
  auto s3 = cache.get_or_setup(a0, looser);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_NE(s0.get(), s3.get());

  // And the original keys all still hit.
  (void)cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(SessionCache, LruEvictsUnderByteBudgetAndHeldSessionsSurvive) {
  const la::CsrMatrix a0 = grid_laplacian(22, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(22, 1.0);
  const la::CsrMatrix a2 = grid_laplacian(22, 2.0);
  const core::HybridConfig cfg = lu_config();

  // Budget sized for about two prepared sessions.
  std::size_t one_entry;
  {
    core::SessionCache probe(1u << 30);
    (void)probe.get_or_setup(a0, cfg);
    one_entry = probe.size_bytes();
    ASSERT_GT(one_entry, 0u);
  }
  core::SessionCache cache(2 * one_entry + one_entry / 2);

  auto s0 = cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Third insert exceeds the budget: the least-recently-used entry (a0) is
  // evicted.
  (void)cache.get_or_setup(a2, cfg);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LE(cache.size_bytes(), 2 * one_entry + one_entry / 2);

  (void)cache.get_or_setup(a1, cfg);  // still resident
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.get_or_setup(a0, cfg);  // evicted: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4u);

  // The evicted-but-held session (s0 from the first insert) is alive and
  // solves — eviction drops the cache's reference, not the caller's.
  const std::vector<double> ones(a0.rows(), 1.0);
  const std::vector<double> b = a0.apply(ones);
  std::vector<double> x(a0.rows(), 0.0);
  EXPECT_TRUE(s0->ready());
  const auto res = s0->solve(b, x);
  EXPECT_TRUE(res.converged);
}

TEST(SessionCache, LruRecencyOrderGovernsEviction) {
  const la::CsrMatrix a0 = grid_laplacian(22, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(22, 1.0);
  const la::CsrMatrix a2 = grid_laplacian(22, 2.0);
  const core::HybridConfig cfg = lu_config();
  std::size_t one_entry;
  {
    core::SessionCache probe(1u << 30);
    (void)probe.get_or_setup(a0, cfg);
    one_entry = probe.size_bytes();
  }
  core::SessionCache cache(2 * one_entry + one_entry / 2);
  (void)cache.get_or_setup(a0, cfg);
  (void)cache.get_or_setup(a1, cfg);
  (void)cache.get_or_setup(a0, cfg);  // touch a0: a1 becomes LRU
  (void)cache.get_or_setup(a2, cfg);  // evicts a1, not a0
  (void)cache.get_or_setup(a0, cfg);
  EXPECT_EQ(cache.stats().hits, 2u);  // both a0 touches after the insert
  (void)cache.get_or_setup(a1, cfg);
  EXPECT_EQ(cache.stats().misses, 4u);  // a1 had to be rebuilt
}

TEST(SessionCache, OversizedSingleEntryIsAdmitted) {
  core::SessionCache cache(/*byte_budget=*/1);  // everything is oversized
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  auto s = cache.get_or_setup(A, lu_config());
  EXPECT_TRUE(s->ready());
  EXPECT_EQ(cache.size(), 1u);  // admitted despite the budget
  (void)cache.get_or_setup(A, lu_config());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SessionCache, MeshKeyedLookupHitsAndMatchesDirectSetup) {
  const std::uint64_t seed = 31;
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), 800, seed);
  const auto q = fem::sample_quadratic_data(seed);
  const auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  const core::HybridConfig cfg = lu_config();

  core::SessionCache cache(1u << 30);
  auto s1 = cache.get_or_setup(m, prob, cfg);
  auto s2 = cache.get_or_setup(m, prob, cfg);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached session reproduces the direct mesh-path session exactly.
  core::SolverSession direct;
  direct.setup(m, prob, cfg);
  std::vector<double> x_cache(prob.b.size(), 0.0),
      x_direct(prob.b.size(), 0.0);
  const auto r_cache = s1->solve(prob.b, x_cache);
  const auto r_direct = direct.solve(prob.b, x_direct);
  EXPECT_EQ(r_cache.iterations, r_direct.iterations);
  for (std::size_t i = 0; i < x_cache.size(); ++i) {
    ASSERT_EQ(x_cache[i], x_direct[i]) << i;
  }
}

// Mesh-keyed and matrix-keyed lookups prepare sessions over *different*
// graphs (mesh adjacency vs matrix pattern) — identical (A, cfg, mask,
// coords) must still key two distinct entries, never alias.
TEST(SessionCache, MeshAndMatrixKeyedLookupsDoNotCollide) {
  const std::uint64_t seed = 41;
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), 700, seed);
  const auto q = fem::sample_quadratic_data(seed);
  const auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  const core::HybridConfig cfg = lu_config();

  core::SessionCache cache(1u << 30);
  core::AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  auto s_matrix = cache.get_or_setup(prob.A, cfg, opts);   // matrix graph
  auto s_mesh = cache.get_or_setup(m, prob, cfg);          // mesh graph
  EXPECT_NE(s_matrix.get(), s_mesh.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // Each re-lookup hits its own entry.
  EXPECT_EQ(cache.get_or_setup(prob.A, cfg, opts).get(), s_matrix.get());
  EXPECT_EQ(cache.get_or_setup(m, prob, cfg).get(), s_mesh.get());
  EXPECT_EQ(cache.stats().hits, 2u);
  // And the mesh-keyed entry matches the direct mesh-path session.
  core::SolverSession direct;
  direct.setup(m, prob, cfg);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  EXPECT_EQ(s_mesh->solve(prob.b, x1).iterations,
            direct.solve(prob.b, x2).iterations);
}

TEST(SessionCache, CachedSessionPassesBlockVsSequentialEquivalence) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(26, 0.0);
  auto session = cache.get_or_setup(A, lu_config());

  std::vector<std::vector<double>> rhs(4);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    rhs[j].resize(A.rows());
    for (Index i = 0; i < A.rows(); ++i) {
      rhs[j][i] = std::sin(0.1 * static_cast<double>(i + 1) *
                           static_cast<double>(j + 1));
    }
  }

  // The sequential reference: one solve() per right-hand side.
  std::vector<std::vector<double>> xs_seq(rhs.size()), xs_blk;
  std::vector<solver::SolveResult> res_seq;
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    xs_seq[j].assign(rhs[j].size(), 0.0);
    res_seq.push_back(session->solve(rhs[j], xs_seq[j]));
  }
  const auto res_blk = session->solve_many(rhs, xs_blk);
  ASSERT_EQ(res_seq.size(), rhs.size());
  ASSERT_EQ(res_blk.size(), rhs.size());
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_TRUE(res_seq[j].converged) << j;
    EXPECT_TRUE(res_blk[j].converged) << j;
    // Lockstep block PCG is bit-identical to scalar PCG per column.
    EXPECT_EQ(res_seq[j].iterations, res_blk[j].iterations) << j;
    double scale = 0.0;
    for (const double v : xs_seq[j]) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < xs_seq[j].size(); ++i) {
      ASSERT_NEAR(xs_seq[j][i], xs_blk[j][i], 1e-12 * (1.0 + scale))
          << j << ":" << i;
    }
  }
}

}  // namespace
