// Equivalence suite for the factorized DSS inference engine
// (gnn/dss_kernels.hpp):
//   - fused Linear kernel vs the scalar reference across shapes and
//     thread counts (including the fused-ReLU variant),
//   - segmented aggregation vs serial scatter, required BITWISE equal at
//     any thread count (the receiver-CSR index preserves per-destination
//     accumulation order),
//   - the aggregate-then-project message kernel vs the three-step oracle
//     (gather → layer-2 GEMM over every edge → segmented aggregate), with a
//     nonzero layer-2 bias and receivers that get no messages,
//   - factorized forward vs reference forward within 1e-4 relative on
//     random graphs across latent/hidden sizes, cached and cache-less
//     (which must agree bit-for-bit with each other),
//   - solver-level: PCG iteration counts for ddm-gnn at every coarse depth
//     (mg_levels 0, 1, 2) unchanged (±1) between the fast and reference
//     paths.
#include <gtest/gtest.h>

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

TEST(FusedLayer2Aggregate, MatchesThreeStepOracleWithBiasAndIsolatedReceivers) {
  ThreadGuard guard;
  struct Shape {
    int hidden, out;
  };
  // hidden = 20 spans two of the kernel's stack-held hidden chunks.
  for (const Shape shape : {Shape{10, 10}, {20, 7}}) {
    for (const Index n : {13, 257, 3000}) {
      const auto s = random_sample(n, 500 + n, 3);
      const auto& topo = *s.topo;
      // Dirichlet nodes receive no messages: their φ is exactly zero, with
      // no bias term (deg = 0).
      ASSERT_TRUE(topo.dirichlet[0]);
      ASSERT_EQ(topo.recv_ptr[0], topo.recv_ptr[1]);

      Rng rng(13 + n);
      nn::Tensor p_recv(n, shape.hidden), p_send(n, shape.hidden);
      nn::Tensor attr(topo.num_edges(), shape.hidden);
      for (nn::Tensor* t : {&p_recv, &p_send, &attr}) {
        for (auto& v : t->d) v = static_cast<float>(rng.uniform(-1, 1));
      }
      nn::ParameterStore ps;
      nn::Linear l2(ps, shape.hidden, shape.out);
      ps.finalize();
      l2.init_xavier(ps.values(), rng);
      // A bias well above the weights' scale, so a missing or misplaced
      // deg_j·b₂ term cannot hide inside the tolerance.
      float* b2 = const_cast<float*>(l2.bias(ps.data()));  // ps owns it
      for (int o = 0; o < shape.out; ++o) {
        b2[o] = static_cast<float>(rng.uniform(1, 3)) * (o % 2 ? -1.0f : 1.0f);
      }

      nn::Tensor e_act, m_edge, ref;
      gnn::gather_edge_preact(topo, p_recv, p_send, attr, e_act);
      l2.forward_fused(ps.data(), e_act, m_edge);
      gnn::aggregate_segmented(topo, m_edge, ref);

      // The forked run goes first, so rows a worker left out of the
      // caller's scratch cannot be masked by an earlier serial run.
      nn::Tensor fused1, fused4;
      set_num_threads(4);
      gnn::fused_layer2_aggregate(topo, p_recv, p_send, attr,
                                  l2.weights(ps.data()), l2.bias(ps.data()),
                                  shape.out, fused4);
      set_num_threads(1);
      gnn::fused_layer2_aggregate(topo, p_recv, p_send, attr,
                                  l2.weights(ps.data()), l2.bias(ps.data()),
                                  shape.out, fused1);
      set_num_threads(0);

      ASSERT_EQ(fused1.rows, n);
      ASSERT_EQ(fused1.cols, shape.out);
      ASSERT_EQ(fused1.size(), ref.size());
      float max_abs = 0.0f;
      for (const float v : ref.d) max_abs = std::max(max_abs, std::abs(v));
      for (Index j = 0; j < n; ++j) {
        const bool isolated = topo.recv_ptr[j] == topo.recv_ptr[j + 1];
        for (int o = 0; o < shape.out; ++o) {
          if (isolated) {
            EXPECT_EQ(fused1.at(j, o), 0.0f) << "n=" << n << " j=" << j;
          }
          EXPECT_NEAR(fused1.at(j, o), ref.at(j, o), 1e-5f * max_abs)
              << "h=" << shape.hidden << " n=" << n << " j=" << j
              << " o=" << o;
        }
      }
      EXPECT_EQ(std::memcmp(fused4.d.data(), fused1.d.data(),
                            fused1.size() * sizeof(float)),
                0)
          << "n=" << n;
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
      gnn::DssWorkspace ws;

      std::vector<float> ref, fast_nocache, fast_cached;
      model.set_fast_inference(false);
      model.forward(s, ws, ref);
      model.set_fast_inference(true);
      model.forward(s, ws, fast_nocache);
      const gnn::DssEdgeCache cache = model.precompute_edges(*s.topo);
      model.forward(s, &cache, ws, fast_cached);

      ASSERT_EQ(ref.size(), static_cast<std::size_t>(n));
      ASSERT_EQ(fast_nocache.size(), ref.size());
      ASSERT_EQ(fast_cached.size(), ref.size());
      float max_abs = 0.0f;
      for (const float v : ref) max_abs = std::max(max_abs, std::abs(v));
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(fast_nocache[i], ref[i], 1e-4f * (1.0f + max_abs))
            << "d=" << shape.latent << " h=" << shape.hidden << " n=" << n
            << " i=" << i;
        // The cache holds exactly what the cache-less path recomputes —
        // identical arithmetic, identical bits.
        EXPECT_EQ(fast_cached[i], fast_nocache[i])
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
  // The gather runs inside fused_layer2_aggregate and is booked on the
  // aggregate slot.
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
