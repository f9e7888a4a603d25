// Equivalence suite for the matrix-first setup path: for every
// preconditioner configuration (each Schwarz entry at mg_levels 0, 1 and 2),
// setup(mesh, prob, cfg) and
// setup(prob.A, cfg, ...) must produce *identical* iteration counts and
// matching solutions (tol 1e-12) on the same Poisson operator.
//
// Why this is provable and not approximate: the mesh path derives the
// decomposition graph from the mesh adjacency and (for the GNN entries) edge
// features from mesh points; the algebraic path re-derives the graph from
// the operator's stored pattern. Assembling with keep_eliminated_pattern
// stores the couplings removed by Dirichlet elimination as structural zeros
// — numerically the same operator, but its pattern then *equals* the mesh
// adjacency, so the two paths build bit-identical decompositions,
// factorizations and DSS graphs. Entries that consult no graph at all
// (none/jacobi/ic0) are additionally checked on the standard
// pattern-dropping assembly.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/spectral_coords.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

struct Problem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

Problem make_problem(bool keep_pattern, std::uint64_t seed = 7,
                     Index nodes = 900) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  fem::AssembleOptions opts;
  opts.keep_eliminated_pattern = keep_pattern;
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); }, opts);
  return {std::move(m), std::move(prob)};
}

gnn::DssModel tiny_model() {
  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;
  return gnn::DssModel(mc, 7);
}

core::HybridConfig base_config(const std::string& name,
                               const gnn::DssModel* model) {
  core::HybridConfig cfg;
  cfg.preconditioner = name;
  cfg.subdomain_target_nodes = 250;
  cfg.rel_tol = 1e-8;
  // The untrained tiny model gives poor (but deterministic) corrections;
  // equivalence is about identical trajectories, not convergence, so cap
  // the run well below the default.
  cfg.max_iterations = 60;
  cfg.model = model;
  cfg.seed = 11;
  return cfg;
}

void expect_equal_solves(const core::SolverSession& mesh_session,
                         const core::SolverSession& alg_session,
                         const fem::PoissonProblem& prob,
                         const std::string& name) {
  ASSERT_TRUE(mesh_session.ready()) << name;
  ASSERT_TRUE(alg_session.ready()) << name;
  EXPECT_EQ(mesh_session.num_subdomains(), alg_session.num_subdomains())
      << name;
  EXPECT_EQ(mesh_session.method(), alg_session.method()) << name;
  std::vector<double> x_mesh(prob.b.size(), 0.0), x_alg(prob.b.size(), 0.0);
  const auto r_mesh = mesh_session.solve(prob.b, x_mesh);
  const auto r_alg = alg_session.solve(prob.b, x_alg);
  EXPECT_EQ(r_mesh.iterations, r_alg.iterations) << name;
  EXPECT_EQ(r_mesh.converged, r_alg.converged) << name;
  double scale = 0.0;
  for (const double v : x_mesh) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < x_mesh.size(); ++i) {
    ASSERT_NEAR(x_mesh[i], x_alg[i], 1e-12 * (1.0 + scale))
        << name << " at row " << i;
  }
}

// The pattern-keeping assembly reproduces the mesh adjacency in the matrix:
// precondition for the graph-dependent equivalences below, asserted on its
// own so a failure here explains failures there.
TEST(AlgebraicSetup, KeepPatternAssemblyReproducesMeshAdjacency) {
  auto [m, prob] = make_problem(/*keep_pattern=*/true);
  const auto g = partition::matrix_adjacency(prob.A);
  ASSERT_EQ(g.num_nodes(), m.num_nodes());
  const auto mesh_ptr = m.adj_ptr();
  const auto mesh_adj = m.adj();
  ASSERT_EQ(g.ptr.size(), mesh_ptr.size());
  for (std::size_t i = 0; i < g.ptr.size(); ++i) {
    ASSERT_EQ(g.ptr[i], mesh_ptr[i]) << i;
  }
  ASSERT_EQ(g.idx.size(), mesh_adj.size());
  for (std::size_t i = 0; i < g.idx.size(); ++i) {
    ASSERT_EQ(g.idx[i], mesh_adj[i]) << i;
  }
  // And the operator's action is numerically unchanged by the padding (up
  // to duplicate-merge summation order in the assembler).
  auto [m2, prob2] = make_problem(/*keep_pattern=*/false);
  std::vector<double> y1(prob.b.size()), y2(prob.b.size());
  prob.A.multiply(prob.b, y1);
  prob2.A.multiply(prob.b, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-12 * (1.0 + std::abs(y1[i]))) << i;
  }
}

TEST(AlgebraicSetup, EveryAlgebraicCapableEntryMatchesMeshSetup) {
  auto [m, prob] = make_problem(/*keep_pattern=*/true);
  const gnn::DssModel model = tiny_model();
  int covered = 0;
  for (const test::PrecondConfig& c : test::precond_configs()) {
    const auto& traits = precond::preconditioner_traits(c.name);
    ++covered;
    core::HybridConfig cfg =
        base_config(c.name, traits.needs_model ? &model : nullptr);
    cfg.mg_levels = c.mg_levels;

    core::SolverSession mesh_session;
    mesh_session.setup(m, prob, cfg);

    // The algebraic path gets only matrix-derivable data plus the known
    // extra structure (mask + coordinates for the geometry consumers) — no
    // mesh object anywhere.
    core::AlgebraicOptions opts;
    opts.dirichlet = prob.dirichlet;
    if (traits.needs_geometry) opts.coordinates = m.points();
    core::SolverSession alg_session;
    alg_session.setup(prob.A, cfg, opts);

    expect_equal_solves(mesh_session, alg_session, prob, c.label());
  }
  // Every configuration of the fixed table runs the algebraic path.
  EXPECT_EQ(covered, 9);
}

// Graph-free entries must agree even on the standard assembly that drops
// eliminated couplings (their preconditioner depends only on A's values).
TEST(AlgebraicSetup, GraphFreeEntriesMatchOnStandardAssembly) {
  auto [m, prob] = make_problem(/*keep_pattern=*/false);
  for (const char* name : {"none", "jacobi", "ic0"}) {
    core::HybridConfig cfg = base_config(name, nullptr);
    cfg.max_iterations = 2000;
    core::SolverSession mesh_session;
    mesh_session.setup(m, prob, cfg);
    core::SolverSession alg_session;
    alg_session.setup(prob.A, cfg);  // not even the Dirichlet mask
    expect_equal_solves(mesh_session, alg_session, prob, name);
    EXPECT_EQ(alg_session.num_subdomains(), 0) << name;
  }
}

// Without coordinates the GNN entries fall back to synthetic spectral
// coordinates: no equivalence claim, but setup must succeed, the solver must
// run, and the preconditioned iteration must actually reduce the residual.
TEST(AlgebraicSetup, GnnSyntheticCoordinateFallbackRuns) {
  auto [m, prob] = make_problem(/*keep_pattern=*/true);
  const gnn::DssModel model = tiny_model();
  core::HybridConfig cfg = base_config("ddm-gnn", &model);
  core::SolverSession session;
  session.setup(prob.A, cfg);  // bare matrix: coords are synthesized
  ASSERT_TRUE(session.ready());
  EXPECT_GT(session.num_subdomains(), 1);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_GT(res.iterations, 0);
  EXPECT_LT(res.final_relative_residual, 1.0);
}

TEST(AlgebraicSetup, SpectralCoordinatesAreDeterministicAndFinite) {
  auto [m, prob] = make_problem(/*keep_pattern=*/true);
  const auto g = partition::matrix_adjacency(prob.A);
  const auto c1 = gnn::spectral_coordinates(g.ptr, g.idx, 30, 5);
  const auto c2 = gnn::spectral_coordinates(g.ptr, g.idx, 30, 5);
  ASSERT_EQ(c1.size(), static_cast<std::size_t>(m.num_nodes()));
  double spread = 0.0;
  for (std::size_t i = 0; i < c1.size(); ++i) {
    ASSERT_TRUE(std::isfinite(c1[i].x) && std::isfinite(c1[i].y)) << i;
    EXPECT_EQ(c1[i].x, c2[i].x) << i;
    EXPECT_EQ(c1[i].y, c2[i].y) << i;
    spread = std::max(spread, std::abs(c1[i].x) + std::abs(c1[i].y));
  }
  EXPECT_GT(spread, 0.0);  // a non-degenerate layout, not all-zeros
}

TEST(AlgebraicSetup, RejectsMalformedInputs) {
  auto [m, prob] = make_problem(/*keep_pattern=*/false);
  core::HybridConfig cfg;
  cfg.preconditioner = "jacobi";
  core::SolverSession session;
  // Unknown names still throw through the algebraic path.
  core::HybridConfig bad = cfg;
  bad.preconditioner = "ddm-quantum";
  EXPECT_THROW(session.setup(prob.A, bad), ContractError);
  EXPECT_FALSE(session.ready());
  // Mis-sized masks and coordinate arrays are rejected up front.
  std::vector<std::uint8_t> short_mask(3, 0);
  core::AlgebraicOptions opts;
  opts.dirichlet = short_mask;
  EXPECT_THROW(session.setup(prob.A, cfg, opts), ContractError);
  std::vector<Point2> short_coords(5);
  opts.dirichlet = {};
  opts.coordinates = short_coords;
  EXPECT_THROW(session.setup(prob.A, cfg, opts), ContractError);
  // Non-square operators cannot be set up.
  la::CooBuilder coo(4, 3);
  coo.add(0, 0, 1.0);
  const la::CsrMatrix rect = std::move(coo).build();
  EXPECT_THROW(session.setup(rect, cfg), ContractError);
}

}  // namespace
