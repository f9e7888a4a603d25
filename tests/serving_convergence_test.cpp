// Serving-configuration convergence suite:
//   - the cached-session served ddm-gnn configuration on an 800-node mesh —
//     adaptive refine-until-contractive setup + mixed-precision applies on
//     an UNTRAINED model — converges on every solve. The untrained model is
//     the worst case for serving: the adaptive setup must detect the
//     non-contractive subdomains and rescue them with the exact Cholesky
//     fallback.
//   - the fused DSS forward is BITWISE identical at any thread count, on a
//     subdomain-sized graph and on one large enough for its node loops to
//     fork, and agrees with a three-step oracle — gather / layer-2 GEMM over
//     every edge / segmented aggregate — to float rounding.
//   - a mixed-precision (fp32 preconditioner apply) solve still meets the
//     fp64 tolerance on the true residual, and the default Krylov selection
//     bumps PCG to flexible PCG when fp32 is on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_kernels.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "nn/mlp.hpp"
#include "obs/forensics.hpp"
#include "precond_configs.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

struct MeshProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

/// The serving smoke problem: an irregular random-domain mesh around 800
/// nodes.
MeshProblem smoke_problem(std::uint64_t seed = 7, Index nodes = 800) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

double true_rel_residual(const la::CsrMatrix& A, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(b.size());
  A.multiply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return la::norm2(r) / la::norm2(b);
}

TEST(ServingConvergence, CachedSessionDdmGnnConvergesAtSmokeScale) {
  auto [m, prob] = smoke_problem();
  // Untrained paper-shape model (k̄=10, d=10, hidden=10): the exact
  // configuration every served solve used to fail on.
  gnn::DssConfig mc;
  gnn::DssModel model(mc, /*seed=*/3);
  const core::HybridConfig cfg = test::served_config(model);

  core::SessionCache cache(/*byte_budget=*/1u << 30);
  auto session = cache.get_or_setup(m, prob, cfg);
  ASSERT_TRUE(session->ready());
  // fp32 applies make the preconditioner effectively nonlinear: the default
  // method must be the flexible variant.
  EXPECT_EQ(session->method(), solver::KrylovMethod::kFpcg);

  // Single-RHS path.
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session->solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure)
      << " iterations=" << res.iterations;
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-5);

  // Batched path (solve_many traffic), through the cache hit.
  auto again = cache.get_or_setup(m, prob, cfg);
  EXPECT_EQ(again.get(), session.get());
  Rng rng(99);
  std::vector<std::vector<double>> bs(4);
  for (auto& b : bs) {
    b.resize(prob.b.size());
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> xs;
  const auto results = again->solve_many(bs, xs);
  ASSERT_EQ(results.size(), bs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].converged)
        << "rhs " << i
        << " failure=" << obs::failure_reason_name(results[i].failure);
    EXPECT_LT(true_rel_residual(prob.A, bs[i], xs[i]), 1e-5);
  }
}

/// A normalized random-rhs sample on the smoke mesh's full message graph.
gnn::GraphSample forward_sample(Index nodes = 500) {
  auto [m, prob] = smoke_problem(/*seed=*/11, nodes);
  const la::CsrMatrix pattern = gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  gnn::GraphSample s;
  s.topo = gnn::build_topology(prob.A, m.points(), prob.dirichlet, &pattern);
  s.rhs.resize(prob.b.size());
  Rng rng(21);
  for (double& v : s.rhs) v = rng.uniform(-1.0, 1.0);
  const double norm = la::norm2(s.rhs);
  for (double& v : s.rhs) v /= norm;
  return s;
}

/// Three-step oracle of DssModel's fused forward: the same factorized first
/// layer, but each message layer runs as gather_edge_preact → layer-2
/// forward_fused over every edge → aggregate_segmented, and Ψ reads φ with
/// nothing folded. The MLPs mirror the model's parameter layout (per block
/// Φ→, Φ←, Ψ, D, in construction order) over a copy of its parameters.
std::vector<float> three_step_forward(const gnn::DssModel& model,
                                      const gnn::GraphSample& g) {
  const gnn::DssConfig& cfg = model.config();
  struct Block {
    nn::Mlp fwd, bwd, psi, dec;
  };
  nn::ParameterStore store;
  std::vector<Block> blocks;
  for (int k = 0; k < cfg.iterations; ++k) {
    Block b;
    b.fwd = nn::Mlp(store, cfg.message_input_dim(), cfg.hidden, cfg.latent);
    b.bwd = nn::Mlp(store, cfg.message_input_dim(), cfg.hidden, cfg.latent);
    b.psi = nn::Mlp(store, cfg.update_input_dim(), cfg.hidden, cfg.latent);
    b.dec = nn::Mlp(store, cfg.latent, cfg.hidden, 1);
    blocks.push_back(b);
  }
  store.finalize();
  DDMGNN_CHECK(store.size() == model.num_params(),
               "three_step_forward: parameter layout mismatch");
  std::copy(model.params().begin(), model.params().end(),
            store.values().begin());
  const float* p = store.data();

  const gnn::GraphTopology& topo = *g.topo;
  const Index n = topo.n;
  const int d = cfg.latent;
  const int in_dim = cfg.node_input_dim();
  const int ldw = cfg.message_input_dim();
  nn::Tensor h(n, d), p_recv, p_send, attr, e_act, m_edge, phi[2];
  nn::Tensor x_psi(n, cfg.update_input_dim()), u, hidden, rhat;
  h.zero();
  for (const Block& blk : blocks) {
    for (const int flip : {0, 1}) {
      const nn::Mlp& mlp = flip ? blk.bwd : blk.fwd;
      const float* w1 = mlp.l1().weights(p);
      nn::fused_gemm(w1, ldw, /*col0=*/0, cfg.hidden, nullptr, false, h,
                     p_recv);
      nn::fused_gemm(w1, ldw, /*col0=*/d, cfg.hidden, nullptr, false, h,
                     p_send);
      gnn::project_attr(topo, w1, ldw, 2 * d, mlp.l1().bias(p),
                        flip ? -1.0f : 1.0f, cfg.hidden, attr);
      gnn::gather_edge_preact(topo, p_recv, p_send, attr, e_act);
      mlp.l2().forward_fused(p, e_act, m_edge);
      gnn::aggregate_segmented(topo, m_edge, phi[flip]);
    }
    for (Index i = 0; i < n; ++i) {
      float* row = x_psi.row(i);
      for (int k = 0; k < d; ++k) row[k] = h.at(i, k);
      row[d] = static_cast<float>(g.rhs[i]);
      if (in_dim == 2) row[d + 1] = topo.dirichlet[i] ? 1.0f : 0.0f;
      for (int k = 0; k < d; ++k) row[d + in_dim + k] = phi[0].at(i, k);
      for (int k = 0; k < d; ++k) row[d + in_dim + d + k] = phi[1].at(i, k);
    }
    blk.psi.infer(p, x_psi, u, hidden);
    for (std::size_t i = 0; i < h.size(); ++i) {
      h.d[i] = h.d[i] + cfg.alpha * u.d[i];
    }
  }
  blocks.back().dec.infer(p, h, rhat, hidden);
  return rhat.d;
}

TEST(ServingConvergence, ForwardIsBitwiseIdenticalAtAnyThreadCount) {
  ThreadGuard guard;
  gnn::DssConfig mc;  // paper shape, untrained — bit patterns are what count
  gnn::DssModel model(mc, /*seed=*/3);
  // A subdomain-sized graph, where no node loop forks, and one above the
  // largest grain of the fused pass and its decoder GEMM, where they all do.
  for (const Index nodes : {500, 5000}) {
    const gnn::GraphSample s = forward_sample(nodes);
    ASSERT_GT(s.size(), nodes * 9 / 10);
    gnn::DssWorkspace ws;
    std::vector<float> ref;
    set_num_threads(1);
    model.forward(s, ws, ref);
    ASSERT_FALSE(ref.empty());
    for (const int threads : {2, 4}) {
      set_num_threads(threads);
      std::vector<float> out;
      model.forward(s, ws, out);
      ASSERT_EQ(out.size(), ref.size()) << "threads=" << threads;
      EXPECT_EQ(
          std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)), 0)
          << "forward not bitwise at threads=" << threads
          << " nodes=" << s.size();
    }
  }
}

TEST(ServingConvergence, ForwardAgreesWithThreeStepOracle) {
  const gnn::GraphSample s = forward_sample();
  gnn::DssConfig mc;
  gnn::DssModel model(mc, /*seed=*/3);
  // Xavier init zeroes every bias; perturb all parameters so the message
  // layers' b₂ (summed deg_j times per receiver) takes part.
  Rng rng(8);
  for (float& v : model.params()) {
    v += static_cast<float>(rng.uniform(-0.1, 0.1));
  }
  gnn::DssWorkspace ws;

  const std::vector<float> ref = three_step_forward(model, s);
  std::vector<float> out;
  model.forward(s, ws, out);
  ASSERT_EQ(out.size(), ref.size());
  float max_abs = 0.0f;
  for (const float v : ref) max_abs = std::max(max_abs, std::abs(v));
  ASSERT_GT(max_abs, 0.0f);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(out[i], ref[i], 1e-5f * max_abs) << "i=" << i;
  }
}

TEST(ServingConvergence, MixedPrecisionLuSolveMeetsFp64Tolerance) {
  auto [m, prob] = smoke_problem(/*seed=*/5, /*nodes=*/600);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.precond_fp32 = true;
  cfg.track_history = false;

  core::SolverSession session;
  session.setup(m, prob, cfg);
  // Symmetric preconditioner, but fp32 rounding breaks exact symmetry: the
  // trait-based default must pick flexible PCG.
  EXPECT_EQ(session.method(), solver::KrylovMethod::kFpcg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_TRUE(res.converged)
      << "failure=" << obs::failure_reason_name(res.failure);
  // Convergence is declared on the fp64 residual recurrence; verify against
  // the true residual so fp32 rounding cannot fake it.
  EXPECT_LT(true_rel_residual(prob.A, prob.b, x), 1e-7);
}

}  // namespace
