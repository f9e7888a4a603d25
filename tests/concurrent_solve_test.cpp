// Concurrency contract of the serving stack: one prepared SolverSession
// (and one prepared preconditioner underneath it) is shared by many client
// threads, so
//   * concurrent solve / solve_many on a shared session must be bitwise
//     identical to the same solves run serially — for EVERY registry entry,
//     including both DDM-GNN variants whose scratch (DSS workspaces) was the
//     original data race;
//   * concurrent preconditioner applies with distinct workspaces must match
//     the serial apply bit for bit;
//   * the served ddm-gnn configuration, fetched through one SessionCache by
//     clients mixing solve and solve_many, must converge on every column and
//     match the serial calls bit for bit;
//   * SessionCache::get_or_setup must collapse a cold-key stampede into
//     exactly one setup (1 miss + N−1 hits) and stay correct when eviction
//     races in-flight holders.
// The CI ThreadSanitizer job runs this binary to certify the absence of
// data races, not just of wrong answers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

struct SmallProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

SmallProblem small_problem(std::uint64_t seed = 42, Index nodes = 700) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

/// Untrained model: concurrency does not require training, only identical
/// deterministic inference.
gnn::DssModel tiny_model() {
  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;
  return gnn::DssModel(mc, 7);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Spin barrier: all threads reach their hot section together so the solves
/// genuinely overlap instead of serializing on thread startup.
class SpinBarrier {
 public:
  explicit SpinBarrier(int count) : waiting_(count) {}
  void arrive_and_wait() {
    waiting_.fetch_sub(1, std::memory_order_acq_rel);
    while (waiting_.load(std::memory_order_acquire) > 0) {
    }
  }

 private:
  std::atomic<int> waiting_;
};

void run_threads(int count, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (int t = 0; t < count; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
}

// ---------------------------------------------------------------------------

// N threads × one shared session, each with its own right-hand side, must
// reproduce the serial solves bit for bit — for every registry configuration.
TEST(ConcurrentSolve, SharedSessionMatchesSerialBitwiseForEveryEntry) {
  auto [m, prob] = small_problem(42, 700);
  const gnn::DssModel model = tiny_model();
  const int kThreads = 4;
  const std::size_t n = prob.b.size();

  std::vector<std::vector<double>> rhs(kThreads);
  for (int t = 0; t < kThreads; ++t) rhs[t] = random_vector(n, 100 + t);

  for (const test::PrecondConfig& c : test::precond_configs()) {
    core::HybridConfig cfg;
    cfg.preconditioner = c.name;
    cfg.mg_levels = c.mg_levels;
    cfg.subdomain_target_nodes = 250;
    cfg.track_history = false;
    // The untrained GNN converges slowly; the equality contract is what is
    // under test, so bound the work per solve.
    cfg.max_iterations = 150;
    if (precond::preconditioner_traits(c.name).needs_model) cfg.model = &model;

    core::SolverSession session;
    session.setup(m, prob, cfg);

    std::vector<std::vector<double>> x_serial(kThreads);
    std::vector<solver::SolveResult> r_serial(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      x_serial[t].assign(n, 0.0);
      r_serial[t] = session.solve(rhs[t], x_serial[t]);
    }

    std::vector<std::vector<double>> x_conc(kThreads);
    std::vector<solver::SolveResult> r_conc(kThreads);
    SpinBarrier barrier(kThreads);
    run_threads(kThreads, [&](int t) {
      x_conc[t].assign(n, 0.0);
      barrier.arrive_and_wait();
      r_conc[t] = session.solve(rhs[t], x_conc[t]);
    });

    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(r_conc[t].iterations, r_serial[t].iterations)
          << c.label() << " thread " << t;
      EXPECT_EQ(r_conc[t].final_relative_residual,
                r_serial[t].final_relative_residual)
          << c.label() << " thread " << t;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x_conc[t][i], x_serial[t][i])
            << c.label() << " thread " << t << " component " << i;
      }
    }
  }
}

// Mixed serving traffic on one shared DDM-GNN session: some clients issue
// single solves, others batched solve_many calls with *different* column
// counts — every client's block applies run the shared solver's local
// solves through its own lane workspaces, under real contention.
TEST(ConcurrentSolve, MixedSingleAndBlockTrafficOnSharedGnnSession) {
  auto [m, prob] = small_problem(7, 600);
  const gnn::DssModel model = tiny_model();
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.model = &model;
  cfg.subdomain_target_nodes = 200;
  cfg.track_history = false;
  cfg.max_iterations = 120;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  const std::size_t n = prob.b.size();

  const int kThreads = 4;
  // Thread t solves a block of t+1 right-hand sides (thread 0 goes through
  // the scalar path, the rest through block FPCG at distinct column counts).
  std::vector<std::vector<std::vector<double>>> rhs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    rhs[t].resize(t + 1);
    for (int j = 0; j <= t; ++j) rhs[t][j] = random_vector(n, 500 + 13 * t + j);
  }

  std::vector<std::vector<std::vector<double>>> xs_serial(kThreads);
  std::vector<std::vector<solver::SolveResult>> r_serial(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    r_serial[t] = session.solve_many(rhs[t], xs_serial[t]);
  }

  std::vector<std::vector<std::vector<double>>> xs_conc(kThreads);
  std::vector<std::vector<solver::SolveResult>> r_conc(kThreads);
  SpinBarrier barrier(kThreads);
  run_threads(kThreads, [&](int t) {
    barrier.arrive_and_wait();
    r_conc[t] = session.solve_many(rhs[t], xs_conc[t]);
  });

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(r_conc[t].size(), r_serial[t].size()) << t;
    for (std::size_t j = 0; j < r_serial[t].size(); ++j) {
      EXPECT_EQ(r_conc[t][j].iterations, r_serial[t][j].iterations)
          << t << ":" << j;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(xs_conc[t][j][i], xs_serial[t][j][i])
            << t << ":" << j << ":" << i;
      }
    }
  }
}

// The served ddm-gnn configuration (adaptive setup + fp32 applies, untrained
// paper-shape model) under cross-client traffic: four clients fetch one
// session through one SessionCache, two run single solves and two run
// 4-RHS solve_many calls. Every column must converge to a verified true
// residual and match the same calls run serially bit for bit.
TEST(ConcurrentSolve, ServedGnnConfigClientsShareOneCachedSession) {
  auto [m, prob] = small_problem(7, 800);
  const gnn::DssModel model(gnn::DssConfig{}, 3);
  const core::HybridConfig cfg = test::served_config(model);
  core::SessionCache cache(1u << 30);
  const std::size_t n = prob.b.size();

  const int kThreads = 4;
  // Even clients solve one right-hand side, odd clients a block of four.
  std::vector<std::vector<std::vector<double>>> rhs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    rhs[t].resize(t % 2 == 0 ? 1 : 4);
    for (std::size_t j = 0; j < rhs[t].size(); ++j) {
      rhs[t][j] = random_vector(n, 900 + 10 * t + j);
    }
  }
  using Results = std::vector<solver::SolveResult>;
  using Solutions = std::vector<std::vector<double>>;
  const auto client = [&](int t, Results& res, Solutions& xs) {
    auto session = cache.get_or_setup(m, prob, cfg);
    if (rhs[t].size() == 1) {
      xs.assign(1, std::vector<double>(n, 0.0));
      res = {session->solve(rhs[t][0], xs[0])};
    } else {
      res = session->solve_many(rhs[t], xs);
    }
  };

  std::vector<Results> r_serial(kThreads), r_conc(kThreads);
  std::vector<Solutions> xs_serial(kThreads), xs_conc(kThreads);
  for (int t = 0; t < kThreads; ++t) client(t, r_serial[t], xs_serial[t]);
  SpinBarrier barrier(kThreads);
  run_threads(kThreads, [&](int t) {
    barrier.arrive_and_wait();
    client(t, r_conc[t], xs_conc[t]);
  });

  EXPECT_EQ(cache.stats().misses, 1u);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(r_conc[t].size(), rhs[t].size()) << t;
    for (std::size_t j = 0; j < rhs[t].size(); ++j) {
      EXPECT_TRUE(r_conc[t][j].converged) << t << ":" << j;
      EXPECT_LT(fem::relative_residual(prob.A, rhs[t][j], xs_conc[t][j]), 1e-5)
          << t << ":" << j;
      EXPECT_EQ(r_conc[t][j].iterations, r_serial[t][j].iterations)
          << t << ":" << j;
      ASSERT_EQ(xs_conc[t][j], xs_serial[t][j]) << t << ":" << j;
    }
  }
}

// Concurrent raw applies on one shared preconditioner with per-caller
// workspaces match the serial apply bit for bit (the layer below the
// session, where the mutable-scratch race originally lived).
TEST(ConcurrentApply, DistinctWorkspacesMatchSerialApply) {
  auto [m, prob] = small_problem(9, 700);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 200, 2, 3);
  const gnn::DssModel model = tiny_model();
  const la::CsrMatrix mesh_pattern =
      gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  const Index n = prob.A.rows();
  const int kThreads = 4;

  for (const std::string& name : {std::string("ddm-lu"),
                                  std::string("ddm-gnn")}) {
    precond::PrecondContext ctx;
    ctx.A = &prob.A;
    ctx.dec = &dec;
    ctx.coords = m.points();
    ctx.edge_pattern = &mesh_pattern;
    ctx.dirichlet = prob.dirichlet;
    ctx.model = &model;
    const auto p = precond::make_preconditioner(name, ctx);

    std::vector<std::vector<double>> r(kThreads), z_serial(kThreads),
        z_conc(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      r[t] = random_vector(n, 900 + t);
      z_serial[t].assign(n, 0.0);
      z_conc[t].assign(n, 0.0);
      p->apply(r[t], z_serial[t]);
    }

    SpinBarrier barrier(kThreads);
    run_threads(kThreads, [&](int t) {
      const auto ws = p->make_workspace();
      barrier.arrive_and_wait();
      for (int rep = 0; rep < 3; ++rep) {  // workspace reuse across applies
        p->apply(r[t], z_conc[t], ws.get());
      }
    });

    for (int t = 0; t < kThreads; ++t) {
      for (Index i = 0; i < n; ++i) {
        ASSERT_EQ(z_conc[t][i], z_serial[t][i]) << name << " " << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------

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
  cfg.subdomain_target_nodes = 150;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;
  return cfg;
}

// A cold-key stampede runs exactly one setup: every thread gets the same
// prepared session, and the counters add up to one miss (the setup) plus
// N−1 hits (the waiters).
TEST(SessionCacheConcurrency, StampedeRunsExactlyOneSetup) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(20, 0.0);
  const core::HybridConfig cfg = lu_config();
  const int kThreads = 8;

  std::vector<std::shared_ptr<core::SolverSession>> got(kThreads);
  SpinBarrier barrier(kThreads);
  run_threads(kThreads, [&](int t) {
    barrier.arrive_and_wait();
    got[t] = cache.get_or_setup(A, cfg);
    // Every caller can solve on what it got, immediately and concurrently.
    const std::vector<double> b = random_vector(A.rows(), 40 + t);
    std::vector<double> x(A.rows(), 0.0);
    const auto res = got[t]->solve(b, x);
    EXPECT_TRUE(res.converged) << t;
  });

  for (int t = 1; t < kThreads; ++t) ASSERT_EQ(got[t].get(), got[0].get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::size_t>(kThreads - 1));
  EXPECT_EQ(cache.size(), 1u);
}

// Hammering a tiny-budget cache from many threads over several operators:
// every call accounts as hit or miss, evicted-but-held sessions keep
// solving, and the cache survives constant eviction churn.
TEST(SessionCacheConcurrency, EvictionChurnKeepsInFlightSolvesCorrect) {
  core::SessionCache cache(/*byte_budget=*/1);  // every insert over budget
  const core::HybridConfig cfg = lu_config();
  const int kThreads = 4;
  const int kRounds = 3;
  std::vector<la::CsrMatrix> ops;
  for (int k = 0; k < 3; ++k) ops.push_back(grid_laplacian(16, 1.0 * k));

  std::atomic<std::size_t> calls{0};
  SpinBarrier barrier(kThreads);
  run_threads(kThreads, [&](int t) {
    barrier.arrive_and_wait();
    for (int round = 0; round < kRounds; ++round) {
      const la::CsrMatrix& A = ops[(t + round) % ops.size()];
      auto session = cache.get_or_setup(A, cfg);
      calls.fetch_add(1, std::memory_order_relaxed);
      const std::vector<double> ones(A.rows(), 1.0);
      const std::vector<double> b = A.apply(ones);
      std::vector<double> x(A.rows(), 0.0);
      const auto res = session->solve(b, x);  // session may be evicted now
      EXPECT_TRUE(res.converged) << t << ":" << round;
      for (Index i = 0; i < A.rows(); i += 29) {
        EXPECT_NEAR(x[i], 1.0, 1e-6) << t << ":" << round;
      }
    }
  });

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, calls.load());
  EXPECT_GE(stats.misses, ops.size());  // each operator was set up at least once
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(cache.size(), ops.size());
}

// The sharing contract is enforced, not just documented: re-keying a
// cache-returned session throws, while a session the caller owns outright
// can still be re-set-up freely.
TEST(SessionCacheConcurrency, SetupOnCachedSessionThrowsContractError) {
  core::SessionCache cache(1u << 30);
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const la::CsrMatrix B = grid_laplacian(16, 1.0);
  const core::HybridConfig cfg = lu_config();

  auto cached = cache.get_or_setup(A, cfg);
  ASSERT_TRUE(cached->ready());
  EXPECT_TRUE(cached->setup_locked());
  try {
    cached->setup(B, cfg);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("get_or_setup"), std::string::npos);
  }
  // The failed re-key left the shared session fully intact.
  ASSERT_TRUE(cached->ready());
  const std::vector<double> ones(A.rows(), 1.0);
  const std::vector<double> b = A.apply(ones);
  std::vector<double> x(A.rows(), 0.0);
  EXPECT_TRUE(cached->solve(b, x).converged);

  core::SolverSession own;
  own.setup(A, cfg);
  own.setup(B, cfg);  // caller-owned sessions re-key as before
  EXPECT_FALSE(own.setup_locked());
}

}  // namespace
