// Multi-level hierarchy tests: build determinism across thread counts,
// V-cycle apply determinism, convergence of the 3-level method, pinned
// digests of the cycle and of 3- and 4-level session solves, dense-factor
// shrinkage vs the one-shot Nicolaides coarse solve, and concurrent applies
// of one shared cycle (the TSan-meaningful test).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "mg/hierarchy.hpp"
#include "mg/vcycle.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "thread_sweep.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;
using test::sweep_threads;
using test::ThreadGuard;

struct Fixture {
  mesh::Mesh m;
  fem::PoissonProblem prob;
  partition::Decomposition dec;
};

/// A problem large enough that the hierarchy genuinely coarsens: `parts`
/// subdomains so the level-1 operator has `parts` rows before aggregation.
Fixture make_fixture(std::uint64_t seed, double h, Index parts) {
  mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), h, seed);
  auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  auto dec = partition::decompose(m.adj_ptr(), m.adj(), parts, 2, seed);
  return {std::move(m), std::move(prob), std::move(dec)};
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  // An empty span may carry a null data(), which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_matrix(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                         b.row_ptr().begin()));
  EXPECT_TRUE(std::equal(a.col_idx().begin(), a.col_idx().end(),
                         b.col_idx().begin()));
  EXPECT_TRUE(bitwise_equal(a.values(), b.values()));
}

TEST(Hierarchy, BuildIsBitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  const Fixture f = make_fixture(91, 0.035, 24);
  mg::HierarchyOptions opts;
  opts.levels = 3;
  opts.aggregate_target = 4;
  opts.min_coarse_rows = 2;

  set_num_threads(1);
  const mg::Hierarchy ref = mg::build_hierarchy(f.prob.A, f.dec, opts);
  ASSERT_GE(ref.num_coarse_levels(), 2);  // it actually coarsened
  for (const int t : sweep_threads()) {
    set_num_threads(t);
    const mg::Hierarchy h = mg::build_hierarchy(f.prob.A, f.dec, opts);
    ASSERT_EQ(h.num_coarse_levels(), ref.num_coarse_levels()) << t;
    for (int l = 0; l < ref.num_coarse_levels(); ++l) {
      SCOPED_TRACE("threads=" + std::to_string(t) +
                   " level=" + std::to_string(l));
      expect_same_matrix(h.levels[l].A, ref.levels[l].A);
      expect_same_matrix(h.levels[l].P, ref.levels[l].P);
      expect_same_matrix(h.levels[l].R, ref.levels[l].R);
      EXPECT_TRUE(bitwise_equal(h.levels[l].inv_diag, ref.levels[l].inv_diag));
      EXPECT_EQ(h.levels[l].lambda_max, ref.levels[l].lambda_max);
    }
  }
}

TEST(VCycle, ApplyIsBitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  const Fixture f = make_fixture(92, 0.035, 24);
  mg::HierarchyOptions opts;
  opts.levels = 3;
  opts.aggregate_target = 4;
  opts.min_coarse_rows = 2;
  set_num_threads(1);
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, opts));

  const Index n = f.m.num_nodes();
  Rng rng(93);
  std::vector<double> r(n);
  for (double& v : r) v = rng.uniform(-1, 1);
  std::vector<double> z_ref(n, 0.0);
  cycle.apply_add(r, z_ref);
  for (const int t : sweep_threads()) {
    set_num_threads(t);
    std::vector<double> z(n, 0.0);
    cycle.apply_add(r, z);
    EXPECT_TRUE(bitwise_equal(z, z_ref)) << "threads=" << t;
  }
}

TEST(VCycle, DenseFactorShrinksVsNicolaides) {
  const Fixture f = make_fixture(96, 0.025, 32);
  const partition::NicolaidesCoarseSpace nico(f.prob.A, f.dec);
  mg::HierarchyOptions opts;
  opts.levels = 2;
  opts.aggregate_target = 4;
  opts.min_coarse_rows = 2;
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, opts));
  // The one-shot coarse solve factors the full K×K operator dense; the
  // hierarchy only dense-factors its (much smaller) coarsest level.
  EXPECT_EQ(nico.dense_factor_bytes(), std::size_t{32 * 32 * sizeof(double)});
  EXPECT_LT(cycle.dense_factor_bytes(), nico.dense_factor_bytes());
  EXPECT_GT(cycle.memory_bytes(), 0u);
}

TEST(VCycle, ConcurrentSharedAppliesMatchSerial) {
  const Fixture f = make_fixture(97, 0.045, 12);
  mg::HierarchyOptions opts;
  opts.levels = 2;
  opts.aggregate_target = 4;
  opts.min_coarse_rows = 2;
  const mg::VCycle cycle(mg::build_hierarchy(f.prob.A, f.dec, opts));
  const Index n = f.m.num_nodes();
  const int clients = 4;
  std::vector<std::vector<double>> rs(clients), refs(clients);
  Rng rng(98);
  for (int c = 0; c < clients; ++c) {
    rs[c].resize(n);
    for (double& v : rs[c]) v = rng.uniform(-1, 1);
    refs[c].assign(n, 0.0);
    cycle.apply_add(rs[c], refs[c]);
  }
  std::vector<std::vector<double>> zs(clients, std::vector<double>(n, 0.0));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(zs[c].begin(), zs[c].end(), 0.0);
        cycle.apply_add(rs[c], zs[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    EXPECT_TRUE(bitwise_equal(zs[c], refs[c])) << "client " << c;
  }
}

TEST(MultiLevelSession, ThreeLevelConvergesNoWorseThan120PercentOfTwoLevel) {
  const mesh::Mesh m =
      mesh::generate_mesh(mesh::random_domain(103), 0.02, 103);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 100;
  cfg.rel_tol = 1e-8;

  core::SolverSession two_level;
  cfg.mg_levels = 1;
  two_level.setup(m, prob, cfg);
  std::vector<double> x2(m.num_nodes(), 0.0);
  const auto res2 = two_level.solve(prob.b, x2);
  ASSERT_TRUE(res2.converged);

  core::SolverSession three_level;
  cfg.mg_levels = 2;
  three_level.setup(m, prob, cfg);
  std::vector<double> x3(m.num_nodes(), 0.0);
  const auto res3 = three_level.solve(prob.b, x3);
  ASSERT_TRUE(res3.converged);
  EXPECT_LE(res3.iterations * 10, res2.iterations * 12);

  // It genuinely built a hierarchy (the session exposes it for stats).
  const auto* schwarz = dynamic_cast<const precond::AdditiveSchwarz*>(
      &three_level.preconditioner());
  ASSERT_NE(schwarz, nullptr);
  const auto* cycle =
      dynamic_cast<const mg::VCycle*>(schwarz->coarse_component());
  ASSERT_NE(cycle, nullptr);
  EXPECT_GE(cycle->hierarchy().num_coarse_levels(), 2);
}

// FNV-1a over the bytes of `v`: one number that moves with any bit.
std::uint64_t digest(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

// The one coarse cycle (V-cycle, one damped-Jacobi sweep per intermediate
// level) keeps its bits: digests of one apply_add and of a whole session
// solve at mg_levels 2 and 3, taken when the cycle was still one choice of
// several (W-cycle, Chebyshev, more sweeps). The operator stays below
// la::kParallelThreshold, so the digests hold at any thread count. They are
// those of the portable x86-64 build: where the compiler may contract a*b+c
// into fused multiply-adds (DDMGNN_NATIVE, FMA hosts) the last bits move, so
// only the iteration counts are pinned there.
TEST(MultiLevelSession, CycleAndSolvesKeepPinnedDigests) {
#if defined(__FP_FAST_FMA) || defined(__FMA__)
  constexpr bool kPortableBits = false;
#else
  constexpr bool kPortableBits = true;
#endif
  const mesh::Mesh m =
      mesh::generate_mesh(mesh::random_domain(105), 0.025, 105);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const Index n = m.num_nodes();
  ASSERT_LT(n, la::kParallelThreshold);
  Rng rng(106);
  std::vector<double> r(n);
  for (double& v : r) v = rng.uniform(-1, 1);

  struct Pin {
    int levels;
    std::uint64_t apply;
    int iterations;
    std::uint64_t x;
  };
  const Pin pins[] = {{2, 0xed81c54fcec1473full, 36, 0xa9d7f9c288092dfbull},
                      {3, 0x94fc91b3f58e4523ull, 36, 0x6f6b0408a07aef9dull}};
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 20;  // K ≈ 280: levels of 280, 13 (and 1) rows
  cfg.rel_tol = 1e-8;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("mg_levels=" + std::to_string(pin.levels));
    cfg.mg_levels = pin.levels;
    core::SolverSession session;
    session.setup(m, prob, cfg);
    const auto* cycle = dynamic_cast<const mg::VCycle*>(
        dynamic_cast<const precond::AdditiveSchwarz&>(session.preconditioner())
            .coarse_component());
    ASSERT_NE(cycle, nullptr);
    std::vector<double> z(n, 0.0);
    cycle->apply_add(r, z);
    if (kPortableBits) {
      EXPECT_EQ(digest(z), pin.apply) << std::hex << digest(z);
    }

    std::vector<double> x(n, 0.0);
    const auto res = session.solve(prob.b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, pin.iterations);
    if (kPortableBits) {
      EXPECT_EQ(digest(x), pin.x) << std::hex << digest(x);
    }
  }
}

}  // namespace
