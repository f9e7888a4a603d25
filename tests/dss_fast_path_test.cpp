// Equivalence suite for the fused DSS inference engine
// (gnn/dss_kernels.hpp):
//   - fused Linear kernel vs the scalar reference across shapes and
//     thread counts (including the fused-ReLU variant),
//   - segmented aggregation vs serial scatter, required BITWISE equal at
//     any thread count (the receiver-CSR index preserves per-destination
//     accumulation order),
//   - one fused block (projection, two-direction edge pass, update with W₂
//     folded into Ψ) vs the three-step oracle (gather → layer-2 GEMM over
//     every edge → segmented aggregate → Ψ), with a nonzero layer-2 bias,
//     receivers that get no messages, and a forked run,
//   - fused forward vs reference forward within 1e-4 relative on random
//     graphs across latent/hidden sizes, with weights packed once and
//     packed per call (which must agree bit-for-bit with each other),
//   - solver-level: PCG iteration counts for ddm-gnn at every coarse depth
//     (mg_levels 0, 1, 2) unchanged (±1) between the fast and reference
//     paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_kernels.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "nn/mlp.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"

namespace {

using namespace ddmgnn;
using la::CooBuilder;
using la::CsrMatrix;
using la::Index;
using mesh::Point2;

/// Restores the ambient thread count when a test overrides it.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

/// Random connected-ish graph: n nodes at random coordinates, a symmetric
/// random pattern of ~`degree` neighbors per node plus a ring backbone, a
/// couple of Dirichlet nodes, diagonally dominant local operator.
gnn::GraphSample random_sample(Index n, std::uint64_t seed, int degree) {
  Rng rng(seed);
  std::vector<Point2> coords(n);
  for (auto& c : coords) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<std::uint8_t> dirichlet(n, 0);
  dirichlet[0] = 1;
  if (n > 4) dirichlet[static_cast<Index>(n / 2)] = 1;

  CooBuilder pat(n, n);
  for (Index i = 0; i < n; ++i) {
    pat.add(i, (i + 1) % n, 1.0);
    pat.add((i + 1) % n, i, 1.0);
    for (int k = 0; k < degree; ++k) {
      const auto j = static_cast<Index>(rng.uniform(0, n - 1e-9));
      if (j == i) continue;
      pat.add(i, j, 1.0);
      pat.add(j, i, 1.0);
    }
  }
  const CsrMatrix pattern = std::move(pat).build();

  CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    if (dirichlet[i]) {
      coo.add(i, i, 1.0);
      continue;
    }
    double row_sum = 0.0;
    const auto rp = pattern.row_ptr();
    const auto ci = pattern.col_idx();
    for (la::Offset e = rp[i]; e < rp[i + 1]; ++e) {
      const Index j = ci[e];
      if (j == i || dirichlet[j]) continue;
      coo.add(i, j, -1.0);
      row_sum += 1.0;
    }
    coo.add(i, i, row_sum + 1.0);
  }

  gnn::GraphSample s;
  s.topo =
      gnn::build_topology(std::move(coo).build(), coords, dirichlet, &pattern);
  s.rhs.resize(n);
  for (double& v : s.rhs) v = rng.uniform(-1, 1);
  const double norm = la::norm2(s.rhs);
  for (double& v : s.rhs) v /= norm;
  return s;
}

TEST(FusedLinear, MatchesReferenceAcrossShapesAndThreadCounts) {
  ThreadGuard guard;
  Rng rng(5);
  for (const auto [in, out, rows] :
       {std::array<int, 3>{23, 10, 17}, {3, 16, 100}, {33, 7, 5000},
        {10, 10, 9001}}) {
    nn::ParameterStore ps;
    nn::Linear lin(ps, in, out);
    ps.finalize();
    lin.init_xavier(ps.values(), rng);
    nn::Tensor x(rows, in);
    for (auto& v : x.d) v = static_cast<float>(rng.uniform(-2, 2));

    nn::Tensor y_ref, y_fused, y_relu, y_fused4;
    lin.forward(ps.data(), x, y_ref);
    lin.forward_fused(ps.data(), x, y_fused, /*relu=*/false);
    ASSERT_EQ(y_fused.rows, y_ref.rows);
    ASSERT_EQ(y_fused.cols, y_ref.cols);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      EXPECT_NEAR(y_fused.d[i], y_ref.d[i],
                  1e-5f * (1.0f + std::abs(y_ref.d[i])))
          << "in=" << in << " out=" << out << " i=" << i;
    }
    // Fused ReLU == max(0, reference) under the same tolerance.
    lin.forward_fused(ps.data(), x, y_relu, /*relu=*/true);
    for (std::size_t i = 0; i < y_ref.size(); ++i) {
      const float r = y_ref.d[i] > 0.0f ? y_ref.d[i] : 0.0f;
      EXPECT_NEAR(y_relu.d[i], r, 1e-5f * (1.0f + std::abs(r)));
    }
    // Row-parallel execution is bitwise identical to single-threaded.
    set_num_threads(4);
    lin.forward_fused(ps.data(), x, y_fused4, /*relu=*/false);
    set_num_threads(1);
    nn::Tensor y_fused1;
    lin.forward_fused(ps.data(), x, y_fused1, /*relu=*/false);
    set_num_threads(0);
    ASSERT_EQ(y_fused4.size(), y_fused1.size());
    EXPECT_EQ(std::memcmp(y_fused4.d.data(), y_fused1.d.data(),
                          y_fused1.size() * sizeof(float)),
              0);
  }
}

TEST(Aggregation, SegmentedBitwiseEqualsSerialScatterAtAnyThreadCount) {
  ThreadGuard guard;
  for (const Index n : {13, 257, 3000}) {
    const auto s = random_sample(n, 100 + n, 3);
    const auto& topo = *s.topo;
    Rng rng(7);
    nn::Tensor m(topo.num_edges(), 6);
    for (auto& v : m.d) v = static_cast<float>(rng.uniform(-1, 1));

    nn::Tensor ref, seg1, seg4;
    gnn::aggregate_scatter(topo, m, n, ref);
    set_num_threads(1);
    gnn::aggregate_segmented(topo, m, seg1);
    set_num_threads(4);
    gnn::aggregate_segmented(topo, m, seg4);
    set_num_threads(0);

    ASSERT_EQ(seg1.size(), ref.size());
    ASSERT_EQ(seg4.size(), ref.size());
    EXPECT_EQ(std::memcmp(seg1.d.data(), ref.d.data(),
                          ref.size() * sizeof(float)),
              0)
        << "n=" << n;
    EXPECT_EQ(std::memcmp(seg4.d.data(), ref.d.data(),
                          ref.size() * sizeof(float)),
              0)
        << "n=" << n;
  }
}

/// Parameter layout of a DssModel (per block Φ→, Φ←, Ψ, D in construction
/// order) over a separate store, so a test can name individual layers.
struct ModelMirror {
  struct Block {
    nn::Mlp fwd, bwd, psi, dec;
  };
  nn::ParameterStore store;
  std::vector<Block> blocks;

  explicit ModelMirror(const gnn::DssConfig& cfg) {
    for (int k = 0; k < cfg.iterations; ++k) {
      Block b;
      b.fwd = nn::Mlp(store, cfg.message_input_dim(), cfg.hidden, cfg.latent);
      b.bwd = nn::Mlp(store, cfg.message_input_dim(), cfg.hidden, cfg.latent);
      b.psi = nn::Mlp(store, cfg.update_input_dim(), cfg.hidden, cfg.latent);
      b.dec = nn::Mlp(store, cfg.latent, cfg.hidden, 1);
      blocks.push_back(b);
    }
    store.finalize();
  }
  /// Writable view of one layer's bias inside the store.
  float* bias(const nn::Linear& l) {
    return const_cast<float*>(l.bias(store.data()));  // store owns it
  }
};

/// One fused block (dss_project → dss_edge_pass → dss_update) on node rows
/// `x`; `s_out` receives the rows as the edge pass left them.
void run_block(const gnn::GraphTopology& topo, const gnn::DssPackedWeights& w,
               int k, nn::Tensor& x, nn::Tensor& s_out) {
  nn::Tensor proj, scratch;
  gnn::dss_project(w, k, x, proj);
  gnn::dss_edge_pass(topo, w, k, proj, x);
  s_out = x;
  gnn::dss_update(topo, w, k, x, scratch);
}

TEST(FusedBlock, MatchesThreeStepOracleWithBiasAndIsolatedReceivers) {
  ThreadGuard guard;
  struct Shape {
    int latent, hidden;
  };
  // d = h = 10 runs the fixed-width loops; d = 7, h = 20 the runtime-width
  // ones, with a folded row (d + nin + 2h) wider than Ψ's input (3d + nin).
  for (const Shape shape : {Shape{10, 10}, {7, 20}}) {
    for (const Index n : {13, 257, 3000}) {
      const auto s = random_sample(n, 500 + n, 3);
      const auto& topo = *s.topo;
      // Dirichlet nodes receive no messages: their message input is exactly
      // zero, with no bias term (deg = 0).
      ASSERT_TRUE(topo.dirichlet[0]);
      ASSERT_EQ(topo.recv_ptr[0], topo.recv_ptr[1]);

      gnn::DssConfig cfg;
      cfg.iterations = 2;
      cfg.latent = shape.latent;
      cfg.hidden = shape.hidden;
      cfg.alpha = 1.0f;  // h' − h = u: the update is not scaled away
      const int k = 1;
      const int d = cfg.latent;
      const int h = cfg.hidden;
      const int nin = cfg.node_input_dim();
      gnn::DssModel model(cfg, 42);
      ModelMirror mirror(cfg);
      Rng rng(13 + n);
      for (float& v : mirror.store.values()) {
        v = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      // A layer-2 bias well above the weights' scale, so a missing or
      // misplaced deg_j·b₂ term cannot hide inside the tolerance.
      for (const nn::Mlp* phi : {&mirror.blocks[k].fwd, &mirror.blocks[k].bwd}) {
        float* b2 = mirror.bias(phi->l2());
        for (int o = 0; o < d; ++o) {
          b2[o] = static_cast<float>(rng.uniform(1, 3)) * (o % 2 ? -1.0f : 1.0f);
        }
      }
      ASSERT_EQ(mirror.store.size(), model.num_params());
      std::copy(mirror.store.values().begin(), mirror.store.values().end(),
                model.params().begin());
      gnn::DssPackedWeights w;
      model.pack_weights(w);
      ASSERT_EQ(w.row_width(), d + nin + 2 * h);

      // Node rows [h | c | flag | S→ | S←] with a random latent state; the
      // S columns hold junk the edge pass must overwrite.
      nn::Tensor x0(n, w.row_width());
      for (auto& v : x0.d) v = static_cast<float>(rng.uniform(-1, 1));
      for (Index i = 0; i < n; ++i) {
        x0.at(i, d + 1) = topo.dirichlet[i] ? 1.0f : 0.0f;
      }

      // The forked run goes first, so rows a worker left out of the
      // caller's buffers cannot be masked by an earlier serial run.
      nn::Tensor x4 = x0, x1 = x0, s4, s1;
      set_num_threads(4);
      run_block(topo, w, k, x4, s4);
      set_num_threads(1);
      run_block(topo, w, k, x1, s1);
      set_num_threads(0);
      EXPECT_EQ(std::memcmp(x4.d.data(), x1.d.data(),
                            x1.size() * sizeof(float)),
                0)
          << "n=" << n;
      EXPECT_EQ(std::memcmp(s4.d.data(), s1.d.data(),
                            s1.size() * sizeof(float)),
                0)
          << "n=" << n;

      // Oracle: per direction, activations per edge → layer 2 per edge →
      // segmented sums; then Ψ over [h | c | flag | φ→ | φ←].
      const float* p = mirror.store.data();
      nn::Tensor hs(n, d);
      for (Index i = 0; i < n; ++i) {
        for (int c = 0; c < d; ++c) hs.at(i, c) = x0.at(i, c);
      }
      nn::Tensor phi[2], act_sum[2];
      for (const int dir : {0, 1}) {
        const nn::Mlp& mlp = dir ? mirror.blocks[k].bwd : mirror.blocks[k].fwd;
        const float* w1 = mlp.l1().weights(p);
        nn::Tensor p_recv, p_send, attr, e_act, m_edge;
        nn::fused_gemm(w1, cfg.message_input_dim(), 0, h, nullptr, false, hs,
                       p_recv);
        nn::fused_gemm(w1, cfg.message_input_dim(), d, h, nullptr, false, hs,
                       p_send);
        gnn::project_attr(topo, w1, cfg.message_input_dim(), 2 * d,
                          mlp.l1().bias(p), dir ? -1.0f : 1.0f, h, attr);
        gnn::gather_edge_preact(topo, p_recv, p_send, attr, e_act);
        gnn::aggregate_segmented(topo, e_act, act_sum[dir]);
        mlp.l2().forward_fused(p, e_act, m_edge);
        gnn::aggregate_segmented(topo, m_edge, phi[dir]);
      }
      nn::Tensor x_psi(n, cfg.update_input_dim()), u, hidden;
      for (Index i = 0; i < n; ++i) {
        for (int c = 0; c < d + nin; ++c) x_psi.at(i, c) = x0.at(i, c);
        for (int c = 0; c < d; ++c) {
          x_psi.at(i, d + nin + c) = phi[0].at(i, c);
          x_psi.at(i, d + nin + d + c) = phi[1].at(i, c);
        }
      }
      mirror.blocks[k].psi.infer(p, x_psi, u, hidden);

      float max_s = 0.0f, max_h = 0.0f;
      for (const auto& t : act_sum) {
        for (const float v : t.d) max_s = std::max(max_s, std::abs(v));
      }
      for (Index i = 0; i < n; ++i) {
        for (int c = 0; c < d; ++c) {
          max_h = std::max(max_h, std::abs(hs.at(i, c) + u.at(i, c)));
        }
      }
      for (Index j = 0; j < n; ++j) {
        const bool isolated = topo.recv_ptr[j] == topo.recv_ptr[j + 1];
        for (int c = 0; c < 2 * h; ++c) {
          const float got = s1.at(j, d + nin + c);
          if (isolated) {
            EXPECT_EQ(got, 0.0f) << "n=" << n << " j=" << j;
          }
          EXPECT_NEAR(got, act_sum[c / h].at(j, c % h), 1e-5f * max_s)
              << "h=" << h << " n=" << n << " j=" << j << " c=" << c;
        }
        for (int c = 0; c < d; ++c) {
          EXPECT_NEAR(x1.at(j, c), hs.at(j, c) + u.at(j, c), 1e-5f * max_h)
              << "d=" << d << " n=" << n << " j=" << j << " c=" << c;
        }
      }

      // deg_j·b₂ adds exactly nothing at deg 0: with b₂ zeroed, isolated
      // receivers update to the same bits (and the bias does move others).
      for (const nn::Mlp* phi_mlp :
           {&mirror.blocks[k].fwd, &mirror.blocks[k].bwd}) {
        float* b2 = mirror.bias(phi_mlp->l2());
        std::fill(b2, b2 + d, 0.0f);
      }
      std::copy(mirror.store.values().begin(), mirror.store.values().end(),
                model.params().begin());
      gnn::DssPackedWeights w_nob2;
      model.pack_weights(w_nob2);
      nn::Tensor x_nob2 = s1, scratch;
      gnn::dss_update(topo, w_nob2, k, x_nob2, scratch);
      int moved = 0;
      for (Index j = 0; j < n; ++j) {
        const bool isolated = topo.recv_ptr[j] == topo.recv_ptr[j + 1];
        const bool same = std::memcmp(x_nob2.row(j), x1.row(j),
                                      d * sizeof(float)) == 0;
        if (isolated) {
          EXPECT_TRUE(same) << "n=" << n << " j=" << j;
        }
        if (!same) ++moved;
      }
      EXPECT_GT(moved, 0) << "n=" << n;
    }
  }
}

TEST(ReceiverCsr, IsAStablePermutationOfTheEdgeList) {
  const auto s = random_sample(120, 9, 4);
  const auto& topo = *s.topo;
  ASSERT_EQ(topo.recv_ptr.size(), static_cast<std::size_t>(topo.n) + 1);
  ASSERT_EQ(topo.recv_order.size(), static_cast<std::size_t>(topo.num_edges()));
  std::vector<int> seen(topo.num_edges(), 0);
  for (Index j = 0; j < topo.n; ++j) {
    Index prev = -1;
    for (la::Offset idx = topo.recv_ptr[j]; idx < topo.recv_ptr[j + 1];
         ++idx) {
      const Index e = topo.recv_order[idx];
      EXPECT_EQ(topo.recv[e], j);
      EXPECT_GT(e, prev) << "segment order must be increasing edge order";
      prev = e;
      ++seen[e];
    }
  }
  for (Index e = 0; e < topo.num_edges(); ++e) EXPECT_EQ(seen[e], 1) << e;
}

TEST(FastForward, MatchesReferenceWithinToleranceAcrossSizes) {
  struct Shape {
    int latent, hidden;
  };
  for (const Shape shape : {Shape{4, 4}, {6, 8}, {10, 10}, {3, 16}}) {
    for (const Index n : {12, 90, 400}) {
      const auto s = random_sample(n, 31 * n + shape.latent, 3);
      gnn::DssConfig cfg;
      cfg.iterations = 3;
      cfg.latent = shape.latent;
      cfg.hidden = shape.hidden;
      gnn::DssModel model(cfg, 1234);
      // Xavier init zeroes every bias; perturb all parameters so the
      // message layers' b₁ and the deg_j·b₂ term take part.
      Rng rng(17 * n + shape.hidden);
      for (float& v : model.params()) {
        v += static_cast<float>(rng.uniform(-0.1, 0.1));
      }
      gnn::DssWorkspace ws;

      std::vector<float> ref, fast_per_call, fast_packed;
      model.set_fast_inference(false);
      model.forward(s, ws, ref);
      model.set_fast_inference(true);
      model.forward(s, ws, fast_per_call);
      gnn::DssPackedWeights packed;
      model.pack_weights(packed);
      gnn::DssWorkspace ws_packed;
      model.forward(s, &packed, ws_packed, fast_packed);

      ASSERT_EQ(ref.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(fast_per_call.size(), ref.size());
      ASSERT_EQ(fast_packed.size(), ref.size());
      float max_abs = 0.0f;
      for (const float v : ref) max_abs = std::max(max_abs, std::abs(v));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast_per_call[i], ref[i], 1e-4f * (1.0f + max_abs))
            << "d=" << shape.latent << " h=" << shape.hidden << " n=" << n
            << " i=" << i;
        // Packing once and packing per call run the same arithmetic on the
        // same packed bits.
        EXPECT_EQ(fast_packed[i], fast_per_call[i])
            << "d=" << shape.latent << " h=" << shape.hidden << " i=" << i;
      }
    }
  }
}

TEST(FastForward, ProfileAccumulatesIntoAllPhases) {
  const auto s = random_sample(300, 77, 3);
  gnn::DssConfig cfg;
  cfg.iterations = 4;
  cfg.latent = 8;
  cfg.hidden = 8;
  gnn::DssModel model(cfg, 5);
  gnn::DssWorkspace ws;
  std::vector<float> out;
  gnn::DssPhaseProfile prof;
  for (int r = 0; r < 3; ++r) model.forward(s, nullptr, ws, out, &prof);
  EXPECT_GT(prof.projection, 0.0);
  // The gather runs inside the edge pass and is booked on the aggregate
  // slot.
  EXPECT_EQ(prof.gather, 0.0);
  EXPECT_GT(prof.aggregate, 0.0);
  EXPECT_GT(prof.update, 0.0);
  EXPECT_GT(prof.decode, 0.0);
  EXPECT_GT(prof.total(), 0.0);
}

TEST(FastForward, SolverIterationCountsMatchReferenceForAllGnnEntries) {
  mesh::Mesh m = mesh::generate_mesh_target_nodes(mesh::random_domain(7), 900,
                                                  7);
  const auto q = fem::sample_quadratic_data(7);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });

  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;

  int covered = 0;
  for (const test::PrecondConfig& c : test::precond_configs()) {
    if (c.name != "ddm-gnn") continue;
    ++covered;

    auto run = [&](bool fast) {
      gnn::DssModel model(mc, 7);  // same seed ⇒ identical weights
      model.set_fast_inference(fast);
      core::HybridConfig cfg;
      cfg.preconditioner = c.name;
      cfg.mg_levels = c.mg_levels;
      cfg.subdomain_target_nodes = 250;
      cfg.rel_tol = 1e-8;
      cfg.max_iterations = 60;  // untrained model: bound the run, compare
                                // trajectories rather than convergence
      cfg.model = &model;
      cfg.seed = 11;
      core::SolverSession session;
      session.setup(m, prob, cfg);
      std::vector<double> x(prob.b.size(), 0.0);
      return session.solve(prob.b, x);
    };

    const auto res_ref = run(/*fast=*/false);
    const auto res_fast = run(/*fast=*/true);
    EXPECT_NEAR(res_fast.iterations, res_ref.iterations, 1) << c.label();
  }
  EXPECT_EQ(covered, 3);  // ddm-gnn at mg_levels 0, 1 and 2
}

}  // namespace
