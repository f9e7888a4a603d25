// Integration tests of the paper's contribution: dataset harvesting, the
// DDM-GNN preconditioner (normalization, scale-equivariance, refinement),
// session solves across every preconditioner configuration, and end-to-end
// PCG convergence with a freshly trained micro-model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/trainer.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

/// Shared micro-model trained once for the whole test binary (seconds).
class TrainedModelEnv {
 public:
  static TrainedModelEnv& instance() {
    static TrainedModelEnv env;
    return env;
  }
  const gnn::DssModel& model() const { return *model_; }
  const core::DssDataset& dataset() const { return dataset_; }

 private:
  TrainedModelEnv() {
    core::DatasetConfig dc;
    dc.num_global_problems = 3;
    dc.mesh_target_nodes = 1200;
    dc.subdomain_target_nodes = 280;
    dc.seed = 777;
    dataset_ = core::generate_dataset(dc);
    gnn::DssConfig mc;
    mc.iterations = 8;
    mc.latent = 10;
    mc.hidden = 10;
    mc.alpha = 0.05f;
    model_ = std::make_unique<gnn::DssModel>(mc, 42);
    gnn::TrainConfig tc;
    tc.epochs = 50;
    tc.batch_size = 48;
    tc.learning_rate = 1e-2;
    tc.clip_norm = 0.1;
    tc.wall_clock_budget_s = 0.0;  // fixed epochs: deterministic model
                                   // quality regardless of machine load
    tc.seed = 5;
    gnn::train_dss(*model_, dataset_.train, dataset_.validation, tc);
  }
  core::DssDataset dataset_;
  std::unique_ptr<gnn::DssModel> model_;
};

TEST(Dataset, HarvestedSamplesHaveUnitNormInputs) {
  const auto& data = TrainedModelEnv::instance().dataset();
  ASSERT_GT(data.total(), 50u);
  EXPECT_GT(data.train.size(), data.validation.size());
  for (const auto& s : data.train) {
    ASSERT_NE(s.topo, nullptr);
    EXPECT_EQ(s.rhs.size(), static_cast<std::size_t>(s.topo->n));
    EXPECT_NEAR(la::norm2(s.rhs), 1.0, 1e-9);
  }
}

TEST(Dataset, TopologiesAreSharedAcrossSamples) {
  const auto& data = TrainedModelEnv::instance().dataset();
  // Many samples per subdomain => far fewer topologies than samples.
  std::set<const gnn::GraphTopology*> topos;
  for (const auto& s : data.train) topos.insert(s.topo.get());
  EXPECT_LT(topos.size(), data.train.size() / 2);
  // Subdomain sizes near the configured target.
  for (const auto* t : topos) {
    EXPECT_GT(t->n, 100);
    EXPECT_LT(t->n, 700);
  }
}

TEST(Dataset, SplitIsDisjointAndCoversAll) {
  core::DatasetConfig dc;
  dc.num_global_problems = 1;
  dc.mesh_target_nodes = 800;
  dc.subdomain_target_nodes = 250;
  dc.seed = 31;
  const auto data = core::generate_dataset(dc);
  const std::size_t total = data.total();
  EXPECT_NEAR(static_cast<double>(data.train.size()) / total, 0.6, 0.05);
  EXPECT_NEAR(static_cast<double>(data.validation.size()) / total, 0.2, 0.05);
}

struct SolveSetup {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

SolveSetup fresh_problem(std::uint64_t seed, Index nodes) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

TEST(DdmGnn, EndToEndPcgConvergesOnFreshProblem) {
  // The headline property (paper Table I): PCG + DDM-GNN reaches 1e-6 on an
  // out-of-distribution problem (~3x training mesh size).
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(999, 3500);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";  // non-symmetric: defaults to flexible PCG
  cfg.model = &env.model();
  cfg.subdomain_target_nodes = 280;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 800;
  // One inference-time refinement pass: the repo's documented compensation
  // for the micro training budget of this test env (DESIGN.md). Without it
  // the 50-epoch model converges (≈180 iters) but does not beat plain CG on
  // this problem, which is the paper property asserted below; the strict
  // paper protocol (0 refinements) is covered by the refinement test.
  cfg.gnn_refinement_steps = 1;
  core::SolverSession gnn_session;
  gnn_session.setup(m, prob, cfg);
  EXPECT_EQ(gnn_session.method(), solver::KrylovMethod::kFpcg);
  std::vector<double> x_gnn(prob.b.size(), 0.0);
  const auto gnn_res = gnn_session.solve(prob.b, x_gnn);
  EXPECT_TRUE(gnn_res.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x_gnn), 1e-5);

  cfg.preconditioner = "ddm-lu";
  core::SolverSession lu_session;
  lu_session.setup(m, prob, cfg);
  std::vector<double> x_lu(prob.b.size(), 0.0);
  const auto lu_res = lu_session.solve(prob.b, x_lu);
  EXPECT_TRUE(lu_res.converged);
  // GNN local solves are approximate: more iterations than exact DDM-LU, but
  // far fewer than the 600-iteration cap and in the same decomposition.
  EXPECT_GE(gnn_res.iterations, lu_res.iterations);
  EXPECT_EQ(gnn_session.num_subdomains(), lu_session.num_subdomains());

  cfg.preconditioner = "none";
  core::SolverSession cg_session;
  cg_session.setup(m, prob, cfg);
  std::vector<double> x_cg(prob.b.size(), 0.0);
  const auto cg_res = cg_session.solve(prob.b, x_cg);
  EXPECT_TRUE(cg_res.converged);
  EXPECT_LT(gnn_res.iterations, cg_res.iterations);
}

TEST(DdmGnn, BatchedSolveManyConvergesEveryColumn) {
  // The batched multi-RHS engine end-to-end with a trained model: three
  // right-hand sides through ONE block flexible-PCG run whose every
  // preconditioner application runs the DSS inferences of all columns ×
  // subdomains in one parallel region. Every column must meet the
  // tolerance, and the shared search space must not need more block
  // iterations than the sequential loop needs for its hardest column.
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(4321, 1500);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.model = &env.model();
  cfg.subdomain_target_nodes = 280;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 800;
  cfg.gnn_refinement_steps = 1;
  cfg.track_history = false;

  std::vector<std::vector<double>> rhs(3, prob.b);
  {
    Rng rng(2718);
    for (double& v : rhs[1]) v = rng.uniform(-1.0, 1.0);
    for (double& v : rhs[2]) v *= -0.25;
  }

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<std::vector<double>> xs;
  const auto results = session.solve_many(rhs, xs);
  ASSERT_EQ(results.size(), 3u);
  int max_block = 0;
  for (std::size_t j = 0; j < results.size(); ++j) {
    EXPECT_TRUE(results[j].converged) << j;
    EXPECT_EQ(results[j].method.rfind("block-fpcg+ddm-gnn", 0), 0u) << j;
    EXPECT_LT(fem::relative_residual(prob.A, rhs[j], xs[j]), 1e-5) << j;
    max_block = std::max(max_block, results[j].iterations);
  }

  // The sequential reference: one solve() per right-hand side.
  int max_seq = 0;
  for (const auto& b : rhs) {
    std::vector<double> x(b.size(), 0.0);
    const auto r = session.solve(b, x);
    EXPECT_TRUE(r.converged);
    max_seq = std::max(max_seq, r.iterations);
  }
  EXPECT_LE(max_block, max_seq + 2);
}

TEST(DdmGnn, RefinementReducesIterationCount) {
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(1001, 2500);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";
  cfg.method = solver::KrylovMethod::kPcg;  // the paper's Algorithm 1
  cfg.model = &env.model();
  cfg.subdomain_target_nodes = 280;
  cfg.max_iterations = 600;
  cfg.gnn_refinement_steps = 0;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x0(prob.b.size(), 0.0);
  const auto r0 = session.solve(prob.b, x0);
  cfg.gnn_refinement_steps = 2;
  session.setup(m, prob, cfg);  // re-key the same session
  std::vector<double> x2(prob.b.size(), 0.0);
  const auto r2 = session.solve(prob.b, x2);
  EXPECT_TRUE(r0.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r0.iterations);
}

TEST(DdmGnn, LocalSolveIsScaleEquivariantWithNormalization) {
  // With §III-A normalization, z(λ r) = λ z(r) even though DSS is nonlinear.
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(1003, 1200);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 280, 2, 7);
  core::GnnSubdomainSolver solver(env.model(), m, prob.dirichlet);
  std::vector<la::CsrMatrix> blocks(dec.num_parts);
  for (Index i = 0; i < dec.num_parts; ++i) {
    blocks[i] = prob.A.principal_submatrix(dec.subdomains[i]);
  }
  solver.setup(std::move(blocks), dec);
  Rng rng(12);
  std::vector<std::vector<double>> r1(dec.num_parts), r2(dec.num_parts);
  std::vector<std::vector<double>> z1(dec.num_parts), z2(dec.num_parts);
  const auto ws = solver.make_workspace();
  for (Index i = 0; i < dec.num_parts; ++i) {
    r1[i].resize(dec.subdomains[i].size());
    for (double& v : r1[i]) v = rng.uniform(-1, 1);
    r2[i] = r1[i];
    for (double& v : r2[i]) v *= 1e-8;  // tiny residual, as at convergence
    z1[i].resize(r1[i].size());
    z2[i].resize(r1[i].size());
    solver.solve(i, r1[i], z1[i], ws.get());
    solver.solve(i, r2[i], z2[i], ws.get());
  }
  for (Index i = 0; i < dec.num_parts; ++i) {
    for (std::size_t j = 0; j < z1[i].size(); ++j) {
      EXPECT_NEAR(z2[i][j], 1e-8 * z1[i][j],
                  1e-12 + 1e-6 * std::abs(1e-8 * z1[i][j]));
    }
  }
}

TEST(DdmGnn, ZeroResidualYieldsZeroCorrection) {
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(1005, 900);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 7);
  core::GnnSubdomainSolver solver(env.model(), m, prob.dirichlet);
  std::vector<la::CsrMatrix> blocks(dec.num_parts);
  for (Index i = 0; i < dec.num_parts; ++i) {
    blocks[i] = prob.A.principal_submatrix(dec.subdomains[i]);
  }
  solver.setup(std::move(blocks), dec);
  std::vector<std::vector<double>> r(dec.num_parts), z(dec.num_parts);
  const auto ws = solver.make_workspace();
  for (Index i = 0; i < dec.num_parts; ++i) {
    r[i].assign(dec.subdomains[i].size(), 0.0);
    z[i].resize(r[i].size());
    solver.solve(i, r[i], z[i], ws.get());
  }
  for (const auto& zi : z) {
    for (const double v : zi) EXPECT_EQ(v, 0.0);
  }
}

// One fresh session per configuration (every table name, each Schwarz
// entry at mg_levels 0, 1 and 2) solves the same problem to the direct
// solution.
TEST(HybridFacade, AllPreconditionersSolveTheSameProblem) {
  const auto& env = TrainedModelEnv::instance();
  auto [m, prob] = fresh_problem(1007, 1500);
  la::SkylineCholesky direct(prob.A);
  const auto x_ref = direct.solve(prob.b);
  for (const test::PrecondConfig& c : test::precond_configs()) {
    core::HybridConfig cfg;
    cfg.preconditioner = c.name;
    cfg.mg_levels = c.mg_levels;
    cfg.model = &env.model();
    cfg.subdomain_target_nodes = 300;
    cfg.rel_tol = 1e-8;
    cfg.max_iterations = 2000;
    core::SolverSession session;
    session.setup(m, prob, cfg);
    std::vector<double> x(prob.b.size(), 0.0);
    const auto res = session.solve(prob.b, x);
    EXPECT_TRUE(res.converged) << c.label();
    EXPECT_LT(la::dist2(x, x_ref) / la::norm2(x_ref), 1e-5) << c.label();
  }
}

TEST(HybridFacade, HistoryTracksMonotoneDecreaseForDdmLu) {
  auto [m, prob] = fresh_problem(1009, 2000);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 350;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.history.size(), 2u);
  // Residual history should broadly decrease (allow small CG oscillations).
  EXPECT_LT(res.history.back(), 1e-6);
  double max_later = 0.0;
  for (std::size_t i = res.history.size() / 2; i < res.history.size(); ++i) {
    max_later = std::max(max_later, res.history[i]);
  }
  EXPECT_LT(max_later, res.history.front());
}

TEST(ModelZoo, CachesTrainedModels) {
  // Use an isolated artifact dir to avoid interfering with the bench cache.
  const std::string dir = "test_zoo_artifacts";
  setenv("DDMGNN_ARTIFACT_DIR", dir.c_str(), 1);
  setenv("DDMGNN_BENCH_SCALE", "smoke", 1);
  setenv("DDMGNN_TRAIN_BUDGET_S", "10", 1);
  core::ZooSpec spec = core::default_spec(2, 4);
  spec.training.epochs = 2;
  spec.dataset.num_global_problems = 1;
  spec.dataset.mesh_target_nodes = 700;
  spec.dataset.subdomain_target_nodes = 220;
  gnn::TrainReport r1, r2;
  const auto m1 = core::get_or_train_model(spec, nullptr, &r1);
  EXPECT_GT(r1.epochs_run, 0);
  EXPECT_TRUE(std::filesystem::exists(core::model_cache_path(spec)));
  const auto m2 = core::get_or_train_model(spec, nullptr, &r2);
  EXPECT_EQ(r2.epochs_run, 0);  // loaded from cache, not retrained
  const auto p1 = m1.params();
  const auto p2 = m2.params();
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
  std::filesystem::remove_all(dir);
  unsetenv("DDMGNN_ARTIFACT_DIR");
  unsetenv("DDMGNN_BENCH_SCALE");
  unsetenv("DDMGNN_TRAIN_BUDGET_S");
}

}  // namespace
