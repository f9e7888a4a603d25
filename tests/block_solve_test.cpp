// Tests of the batched multi-RHS solve engine: MultiVector kernels and the
// fused SpMM, Preconditioner::apply_many column-equivalence for every
// preconditioner configuration, block-PCG lockstep equivalence to per-RHS
// sequential PCG (including deflation on mixed-difficulty right-hand sides),
// block CG bit for bit equal to scalar CG per column, the shared-subspace
// block flexible PCG, non-finite columns stopping the way the scalar drivers
// stop them, and the Richardson damping fix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/multivector.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"
#include "solver/block_krylov.hpp"
#include "solver/stationary.hpp"
#include "thread_sweep.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using la::MultiVector;
using mesh::Point2;

struct SmallProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

SmallProblem small_problem(std::uint64_t seed = 42, Index nodes = 900) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

gnn::DssModel tiny_model() {
  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;
  return gnn::DssModel(mc, 7);
}

/// The sequential reference for solve_many: one solve() per right-hand
/// side, each from a zero guess.
std::vector<solver::SolveResult> solve_each(
    const core::SolverSession& session,
    const std::vector<std::vector<double>>& rhs,
    std::vector<std::vector<double>>& xs) {
  std::vector<solver::SolveResult> results;
  xs.resize(rhs.size());
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    xs[j].assign(rhs[j].size(), 0.0);
    results.push_back(session.solve(rhs[j], xs[j]));
  }
  return results;
}

TEST(MultiVector, FusedKernelsMatchScalarOps) {
  const Index n = 100, s = 3;
  std::vector<std::vector<double>> cols(s);
  for (Index j = 0; j < s; ++j) cols[j] = random_vector(n, 10 + j);
  MultiVector x = MultiVector::from_columns(cols);
  ASSERT_EQ(x.rows(), n);
  ASSERT_EQ(x.cols(), s);
  for (Index j = 0; j < s; ++j) {
    for (Index i = 0; i < n; ++i) EXPECT_EQ(x.at(i, j), cols[j][i]);
  }

  MultiVector y = MultiVector::from_columns(cols);
  std::vector<double> a{0.5, -2.0, 3.0};
  axpy_columns(a, x, y);
  std::vector<double> dots(s), norms(s);
  dot_columns(x, y, dots);
  norm2_columns(y, norms);
  for (Index j = 0; j < s; ++j) {
    std::vector<double> ref = cols[j];
    la::axpy(a[j], cols[j], ref);
    EXPECT_EQ(dots[j], la::dot(cols[j], ref)) << j;
    EXPECT_EQ(norms[j], la::norm2(ref)) << j;
  }

  xpay_columns(a, x, y);  // y = x + a.*y
  for (Index j = 0; j < s; ++j) {
    std::vector<double> ref = cols[j];
    la::axpy(a[j], cols[j], ref);   // the earlier axpy
    la::xpay(cols[j], a[j], ref);   // this xpay
    for (Index i = 0; i < n; ++i) EXPECT_EQ(y.at(i, j), ref[i]);
  }

  // Deflation compaction: keep columns 0 and 2.
  const std::vector<Index> keep{0, 2};
  x.keep_columns(keep);
  ASSERT_EQ(x.cols(), 2);
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(x.at(i, 0), cols[0][i]);
    EXPECT_EQ(x.at(i, 1), cols[2][i]);
  }
}

TEST(MultiVector, ApplyManyMatchesPerColumnMultiply) {
  auto [m, prob] = small_problem(3, 700);
  const Index n = prob.A.rows();
  const Index s = 5;
  MultiVector x(n, s);
  for (Index j = 0; j < s; ++j) {
    la::copy(random_vector(n, 100 + j), x.col(j));
  }
  MultiVector y;
  prob.A.apply_many(x, y);
  ASSERT_EQ(y.rows(), n);
  ASSERT_EQ(y.cols(), s);
  std::vector<double> ref(n);
  for (Index j = 0; j < s; ++j) {
    prob.A.multiply(x.col(j), ref);
    const auto yj = y.col(j);
    for (Index i = 0; i < n; ++i) EXPECT_EQ(yj[i], ref[i]) << j;
  }
}

// A block apply runs every column through exactly the code of a single
// apply, so the two agree bit for bit — at 1, 2 and 4 threads.
TEST(ApplyMany, EqualsLoopedApplyForEveryRegistryEntry) {
  test::ThreadGuard guard;
  auto [m, prob] = small_problem(5, 900);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 3);
  const gnn::DssModel model = tiny_model();
  const Index n = prob.A.rows();
  const Index s = 4;
  MultiVector r(n, s);
  for (Index j = 0; j < s; ++j) la::copy(random_vector(n, 50 + j), r.col(j));

  const la::CsrMatrix mesh_pattern =
      gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  for (const test::PrecondConfig& c : test::precond_configs()) {
    const auto& traits = precond::preconditioner_traits(c.name);
    precond::PrecondContext ctx;
    ctx.A = &prob.A;
    ctx.coords = m.points();
    ctx.edge_pattern = &mesh_pattern;
    ctx.dirichlet = prob.dirichlet;
    ctx.mg_levels = c.mg_levels;
    if (traits.needs_decomposition) ctx.dec = &dec;
    if (traits.needs_model) ctx.model = &model;
    const auto p = precond::make_preconditioner(c.name, ctx);

    for (const int threads : test::sweep_threads()) {
      set_num_threads(threads);
      MultiVector z_block(n, s);
      p->apply_many(r, z_block);
      std::vector<double> z_ref(n);
      for (Index j = 0; j < s; ++j) {
        p->apply(r.col(j), z_ref);
        const auto zj = z_block.col(j);
        for (Index i = 0; i < n; ++i) {
          ASSERT_EQ(zj[i], z_ref[i]) << c.label() << " threads " << threads
                                     << " col " << j << " row " << i;
        }
      }
    }
  }
}

TEST(BlockPcg, MatchesSequentialPcgPerColumnWithDeflation) {
  auto [m, prob] = small_problem(13, 1400);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 300;
  cfg.rel_tol = 1e-8;
  cfg.track_history = true;

  // Mixed difficulty: the assembled b, an immediately-converged zero column,
  // a scaled copy, and an unrelated random field — columns converge at
  // different iterations, exercising deflation mid-solve.
  std::vector<std::vector<double>> rhs(4, prob.b);
  std::fill(rhs[1].begin(), rhs[1].end(), 0.0);
  for (double& v : rhs[2]) v *= -3.0;
  rhs[3] = random_vector(prob.b.size(), 99);

  core::SolverSession block_session;
  block_session.setup(m, prob, cfg);
  std::vector<std::vector<double>> xs_block;
  const auto block_results = block_session.solve_many(rhs, xs_block);

  std::vector<std::vector<double>> xs_seq;
  const auto seq_results = solve_each(block_session, rhs, xs_seq);

  ASSERT_EQ(block_results.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(block_results[j].converged) << j;
    EXPECT_EQ(block_results[j].method, "block-pcg+ddm-lu");
    // Lockstep recurrences: iteration counts within 1 of the scalar solver
    // (they match exactly — the recurrences share every kernel).
    EXPECT_NEAR(block_results[j].iterations, seq_results[j].iterations, 1)
        << j;
    // Residuals meet the requested tolerance for every column.
    EXPECT_LT(fem::relative_residual(prob.A, rhs[j], xs_block[j]),
              10 * cfg.rel_tol)
        << j;
    // Identical trajectories ⇒ identical solutions (tight tolerance).
    ASSERT_EQ(xs_block[j].size(), xs_seq[j].size());
    for (std::size_t i = 0; i < xs_block[j].size(); i += 13) {
      EXPECT_NEAR(xs_block[j][i], xs_seq[j][i],
                  1e-12 * (1.0 + std::abs(xs_seq[j][i])))
          << j;
    }
  }
  // The zero column deflates instantly.
  EXPECT_EQ(block_results[1].iterations, 0);
  EXPECT_TRUE(block_results[1].converged);
  // Histories are tracked per column up to each column's own convergence.
  EXPECT_EQ(static_cast<int>(block_results[3].history.size()),
            block_results[3].iterations + 1);
}

// Block CG is block PCG over the identity and scalar CG is PCG over the
// identity, so every column of a "none" solve_many repeats its scalar cg
// solve bit for bit: iterations, iterate and residual history.
TEST(BlockCg, EqualsScalarCgPerColumnBitForBit) {
  auto [m, prob] = small_problem(15, 1400);
  core::HybridConfig cfg;
  cfg.preconditioner = "none";
  cfg.max_iterations = 2000;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  ASSERT_EQ(session.method(), solver::KrylovMethod::kCg);

  std::vector<std::vector<double>> rhs{prob.b,
                                       random_vector(prob.b.size(), 31),
                                       random_vector(prob.b.size(), 32)};
  std::vector<std::vector<double>> xs_block;
  const auto block = session.solve_many(rhs, xs_block);
  ASSERT_EQ(block.size(), rhs.size());
  solver::SolveOptions opts;
  opts.max_iterations = cfg.max_iterations;
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    SCOPED_TRACE("column " + std::to_string(j));
    std::vector<double> x(rhs[j].size(), 0.0);
    const auto scalar = solver::conjugate_gradient(prob.A, rhs[j], x, opts);
    EXPECT_EQ(block[j].method, "block-cg");
    EXPECT_EQ(scalar.method, "cg");
    EXPECT_TRUE(scalar.converged);
    EXPECT_EQ(block[j].converged, scalar.converged);
    EXPECT_EQ(block[j].iterations, scalar.iterations);
    ASSERT_EQ(xs_block[j].size(), x.size());
    EXPECT_EQ(std::memcmp(xs_block[j].data(), x.data(),
                          x.size() * sizeof(double)),
              0);
    ASSERT_EQ(block[j].history.size(), scalar.history.size());
    EXPECT_EQ(std::memcmp(block[j].history.data(), scalar.history.data(),
                          scalar.history.size() * sizeof(double)),
              0);
  }
}

TEST(BlockFpcg, SharedSubspaceConvergesEveryColumn) {
  auto [m, prob] = small_problem(17, 1400);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.method = solver::KrylovMethod::kFpcg;  // force the flexible block path
  cfg.subdomain_target_nodes = 300;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;

  std::vector<std::vector<double>> rhs;
  rhs.push_back(prob.b);
  for (int j = 0; j < 5; ++j) {
    rhs.push_back(random_vector(prob.b.size(), 200 + j));
  }
  // A duplicated column: the direction block turns rank-deficient and the
  // MGS drop-path must handle it.
  rhs.push_back(prob.b);

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<std::vector<double>> xs;
  const auto results = session.solve_many(rhs, xs);

  std::vector<std::vector<double>> xs_seq;
  const auto seq_results = solve_each(session, rhs, xs_seq);

  int max_block = 0, max_seq = 0;
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    EXPECT_TRUE(results[j].converged) << j;
    EXPECT_LT(fem::relative_residual(prob.A, rhs[j], xs[j]), 10 * cfg.rel_tol)
        << j;
    max_block = std::max(max_block, results[j].iterations);
    max_seq = std::max(max_seq, seq_results[j].iterations);
  }
  // The shared search space never needs more block iterations than the
  // hardest column needs alone (each column minimizes over a superset of
  // its own directions).
  EXPECT_LE(max_block, max_seq + 1);
}

// FNV-1a over the bytes of every x, column after column: one number that
// moves with any bit of any column.
std::uint64_t digest(const std::vector<std::vector<double>>& xs) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::vector<double>& x : xs) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
    for (std::size_t i = 0; i < x.size() * sizeof(double); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  }
  return h;
}

// Block FPCG's window passes (the candidates' projection against the stored
// directions and the Galerkin update of x and r) keep every column's
// operation order, so every x, iteration count, deflation and scalar-fallback
// decision keeps its bits. The digests were taken when both passes still ran
// column by column. Cases: the served configuration at 5 (a remainder past
// any 4-wide column grouping), 8 and 16 (SolveService's max_batch) columns;
// the forced-FPCG ddm-lu block of SharedSubspaceConvergesEveryColumn, whose
// duplicated column takes the MGS drop path, plus a zero column that
// deflates before the first iteration; and a solve above
// la::kParallelThreshold rows at 2 threads, where every dot adds two
// per-thread partials. They are the portable x86-64 build's bits: where the
// compiler may contract a*b+c into fused multiply-adds only the iteration
// counts are pinned.
TEST(BlockFpcg, WindowProjectionsKeepPinnedDigests) {
#if defined(__FP_FAST_FMA) || defined(__FMA__)
  constexpr bool kPortableBits = false;
#else
  constexpr bool kPortableBits = true;
#endif
  test::ThreadGuard guard;
  struct Pin {
    std::vector<int> iterations;
    std::uint64_t x;
  };
  auto check = [&](const core::SolverSession& session,
                   const std::vector<std::vector<double>>& rhs,
                   const Pin& pin) {
    ASSERT_EQ(session.method(), solver::KrylovMethod::kFpcg);
    std::vector<std::vector<double>> xs;
    const auto results = session.solve_many(rhs, xs);
    std::vector<int> iterations;
    for (const solver::SolveResult& res : results) {
      EXPECT_TRUE(res.converged);
      iterations.push_back(res.iterations);
    }
    EXPECT_EQ(iterations, pin.iterations);
    if (kPortableBits) {
      EXPECT_EQ(digest(xs), pin.x) << std::hex << digest(xs);
    }
  };

  set_num_threads(1);
  {
    auto [m, prob] = small_problem(41, 2000);
    ASSERT_LT(prob.A.rows(), la::kParallelThreshold);
    const gnn::DssModel model = tiny_model();
    core::SolverSession session;
    session.setup(m, prob, test::served_config(model));
    std::vector<std::vector<double>> rhs;
    for (int j = 0; j < 16; ++j) {
      rhs.push_back(random_vector(prob.b.size(), 300 + j));
    }
    const Pin pins[] = {
        {{17, 17, 16, 17, 16}, 0x44eedae0a419b8a0ull},
        {{15, 15, 14, 15, 14, 15, 15, 14}, 0x66c77f9ab8cd6177ull},
        {{11, 11, 11, 11, 11, 11, 11, 11, 12, 11, 12, 11, 12, 11, 11, 11},
         0x4d2a259a85c6cc17ull}};
    const int counts[] = {5, 8, 16};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE("served, " + std::to_string(counts[i]) + " columns");
      check(session,
            std::vector<std::vector<double>>(rhs.begin(),
                                             rhs.begin() + counts[i]),
            pins[i]);
    }
  }
  {
    SCOPED_TRACE("ddm-lu, duplicated and zero columns");
    auto [m, prob] = small_problem(17, 1400);
    core::HybridConfig cfg;
    cfg.preconditioner = "ddm-lu";
    cfg.method = solver::KrylovMethod::kFpcg;
    cfg.subdomain_target_nodes = 300;
    cfg.rel_tol = 1e-8;
    cfg.track_history = false;
    core::SolverSession session;
    session.setup(m, prob, cfg);
    std::vector<std::vector<double>> rhs{
        prob.b, std::vector<double>(prob.b.size(), 0.0)};
    for (int j = 0; j < 5; ++j) {
      rhs.push_back(random_vector(prob.b.size(), 200 + j));
    }
    rhs.push_back(prob.b);
    check(session, rhs,
          {{15, 0, 16, 16, 16, 16, 16, 15}, 0xc89bb1b3e5e4774eull});
  }
#ifndef DDMGNN_TSAN  // 2 threads; see thread_sweep.hpp
  {
    SCOPED_TRACE("ddm-lu above the parallel threshold, 2 threads");
    set_num_threads(2);
    auto [m, prob] = small_problem(43, 10000);
    ASSERT_GT(prob.A.rows(), la::kParallelThreshold);
    core::HybridConfig cfg;
    cfg.preconditioner = "ddm-lu";
    cfg.method = solver::KrylovMethod::kFpcg;
    cfg.subdomain_target_nodes = 350;
    cfg.rel_tol = 1e-8;
    cfg.track_history = false;
    core::SolverSession session;
    session.setup(m, prob, cfg);
    std::vector<std::vector<double>> rhs{prob.b};
    for (int j = 0; j < 3; ++j) {
      rhs.push_back(random_vector(prob.b.size(), 400 + j));
    }
    check(session, rhs, {{33, 34, 34, 33}, 0xabda9426f1c9184bull});
  }
#endif
}

// A NaN right-hand side stops a block solve's column exactly where the
// scalar drivers stop it — after 0 iterations, unconverged, failure "nan" —
// and the finite columns beside it are untouched: for the lockstep drivers
// (block CG, block PCG) they match their scalar solves bit for bit.
TEST(BlockSolve, NanColumnStopsLikeTheScalarSolve) {
  auto [m, prob] = small_problem(19, 1400);
  const std::size_t n = prob.b.size();
  std::vector<std::vector<double>> rhs{
      prob.b, std::vector<double>(n, std::nan("")), random_vector(n, 77)};

  struct Case {
    std::string preconditioner;
    std::optional<solver::KrylovMethod> method;
    bool lockstep;
  };
  const std::vector<Case> cases{
      {"none", std::nullopt, true},                      // block CG
      {"ddm-lu", std::nullopt, true},                    // block PCG
      {"ddm-lu", solver::KrylovMethod::kFpcg, false}};   // block FPCG
  for (const Case& c : cases) {
    core::HybridConfig cfg;
    cfg.preconditioner = c.preconditioner;
    cfg.method = c.method;
    cfg.subdomain_target_nodes = 300;
    cfg.max_iterations = 2000;
    core::SolverSession session;
    session.setup(m, prob, cfg);
    const std::string label =
        c.preconditioner + " " + solver::krylov_method_name(session.method());

    std::vector<std::vector<double>> xs_block, xs_seq;
    const auto block = session.solve_many(rhs, xs_block);
    const auto seq = solve_each(session, rhs, xs_seq);
    ASSERT_EQ(block.size(), rhs.size()) << label;

    EXPECT_EQ(seq[1].iterations, 0) << label;
    EXPECT_EQ(block[1].iterations, seq[1].iterations) << label;
    EXPECT_FALSE(block[1].converged) << label;
    EXPECT_EQ(block[1].failure, seq[1].failure) << label;
    EXPECT_EQ(block[1].failure, obs::FailureReason::kNan) << label;

    for (const std::size_t j : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_TRUE(block[j].converged) << label << " col " << j;
      if (!c.lockstep) continue;
      EXPECT_EQ(block[j].iterations, seq[j].iterations) << label << " col " << j;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(xs_block[j][i], xs_seq[j][i])
            << label << " col " << j << " row " << i;
      }
    }
  }
}

TEST(Richardson, PowerIterationDampingTamesDivergence) {
  auto [m, prob] = small_problem(23, 1000);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 250;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  const auto& precond = session.preconditioner();

  solver::SolveOptions opts;
  opts.rel_tol = 1e-6;
  opts.max_iterations = 3000;
  opts.track_history = false;

  // A deliberately too-large damping factor must trip the divergence guard
  // long before the iteration cap instead of looping on garbage.
  std::vector<double> x(prob.b.size(), 0.0);
  const auto diverged = solver::stationary_iteration(prob.A, precond, prob.b,
                                                     x, opts, /*damping=*/10.0);
  EXPECT_FALSE(diverged.converged);
  EXPECT_LT(diverged.iterations, opts.max_iterations);

  // The power-iteration bound yields a contraction: ω ∈ (0, 1] here (the
  // two-level Schwarz spectrum reaches beyond 2) and the damped iteration
  // converges.
  const double omega = solver::power_iteration_damping(prob.A, precond);
  EXPECT_GT(omega, 0.0);
  EXPECT_LE(omega, 1.0);
  std::fill(x.begin(), x.end(), 0.0);
  const auto damped =
      solver::stationary_iteration(prob.A, precond, prob.b, x, opts, omega);
  EXPECT_TRUE(damped.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-5);
}

}  // namespace
