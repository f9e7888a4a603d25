// Tests of the setup/solve session API and the preconditioner table: table
// round-trips (every configuration constructs and the instance reports its
// table name), mg_levels alone picking the Schwarz coarse correction, the
// unknown-name and bad-tolerance error paths, alias resolution,
// Krylov-method selector round-trips, setup-once/solve-many state reuse, and
// setup and solve reproducibility (fresh sessions; repeat solves at 4
// threads).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "precond_configs.hpp"
#include "solver/krylov.hpp"
#include "thread_sweep.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
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

/// Untrained model: registry construction does not require training.
gnn::DssModel tiny_model() {
  gnn::DssConfig mc;
  mc.iterations = 2;
  mc.latent = 4;
  mc.hidden = 4;
  return gnn::DssModel(mc, 7);
}

TEST(Registry, BuiltInNamesAreExactlyTheFiveEntries) {
  const std::vector<std::string> expected = {"ddm-gnn", "ddm-lu", "ic0",
                                             "jacobi", "none"};
  EXPECT_EQ(precond::preconditioner_names(), expected);
}

TEST(Registry, EveryRegisteredNameConstructsAndNameMatches) {
  auto [m, prob] = small_problem();
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 3);
  const gnn::DssModel model = tiny_model();
  const la::CsrMatrix mesh_pattern =
      gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  const auto configs = test::precond_configs();
  ASSERT_GE(configs.size(), 9u);
  for (const test::PrecondConfig& c : configs) {
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
    ASSERT_NE(p, nullptr) << c.label();
    EXPECT_EQ(p->name(), c.name) << c.label();
  }
}

// The Schwarz entries' coarse correction is chosen by mg_levels alone: none
// at depth 0, the Nicolaides solve at depth 1, a cycle at depth >= 2.
TEST(Registry, MgLevelsAlonePicksTheCoarseComponent) {
  auto [m, prob] = small_problem();
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 3);
  precond::PrecondContext ctx;
  ctx.A = &prob.A;
  ctx.dec = &dec;
  const auto coarse_name = [&](int levels) -> std::string {
    ctx.mg_levels = levels;
    const auto p = precond::make_preconditioner("ddm-lu", ctx);
    const auto* coarse =
        dynamic_cast<const precond::AdditiveSchwarz&>(*p).coarse_component();
    return coarse == nullptr ? "none" : coarse->name();
  };
  EXPECT_EQ(coarse_name(0), "none");
  EXPECT_EQ(coarse_name(1), "nicolaides");
  EXPECT_EQ(coarse_name(2), "mg-vcycle");
}

TEST(Registry, NegativeDepthThrowsNamingTheField) {
  auto [m, prob] = small_problem();
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 250;
  cfg.mg_levels = -1;
  core::SolverSession session;
  try {
    session.setup(m, prob, cfg);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("mg_levels"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(session.ready());
}

TEST(Registry, UnknownNameThrowsListingRegisteredNames) {
  precond::PrecondContext ctx;
  try {
    precond::make_preconditioner("no-such-precond", ctx);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-precond"), std::string::npos);
    EXPECT_NE(what.find("ddm-gnn"), std::string::npos);  // lists known names
  }
  EXPECT_THROW(precond::preconditioner_traits("bogus"), ContractError);
  EXPECT_THROW(precond::canonical_preconditioner_name("bogus"), ContractError);
}

TEST(Registry, AliasesResolveToCanonicalNames) {
  EXPECT_EQ(precond::canonical_preconditioner_name("identity"), "none");
  // Aliases are reachable but not listed.
  EXPECT_NO_THROW(precond::preconditioner_traits("identity"));
  const auto names = precond::preconditioner_names();
  EXPECT_EQ(std::count(names.begin(), names.end(), "identity"), 0);
}

TEST(Registry, MissingRequirementsFailWithReadableErrors) {
  auto [m, prob] = small_problem();
  const la::CsrMatrix mesh_pattern =
      gnn::adjacency_pattern(m.adj_ptr(), m.adj());
  precond::PrecondContext ctx;
  ctx.A = &prob.A;
  ctx.coords = m.points();
  ctx.edge_pattern = &mesh_pattern;
  ctx.dirichlet = prob.dirichlet;
  // DDM without a decomposition.
  EXPECT_THROW(precond::make_preconditioner("ddm-lu", ctx), ContractError);
  // GNN with a decomposition but no model.
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 250, 2, 3);
  ctx.dec = &dec;
  EXPECT_THROW(precond::make_preconditioner("ddm-gnn", ctx), ContractError);
  // GNN with a model but no geometry.
  const gnn::DssModel model = tiny_model();
  ctx.model = &model;
  ctx.coords = {};
  EXPECT_THROW(precond::make_preconditioner("ddm-gnn", ctx), ContractError);
}

TEST(KrylovSelector, NamesRoundTrip) {
  for (const auto method :
       {solver::KrylovMethod::kCg, solver::KrylovMethod::kPcg,
        solver::KrylovMethod::kFpcg}) {
    const auto parsed =
        solver::krylov_method_from_name(solver::krylov_method_name(method));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, method);
  }
  EXPECT_FALSE(solver::krylov_method_from_name("bicgstab").has_value());
  EXPECT_FALSE(solver::krylov_method_from_name("gmres").has_value());
  EXPECT_FALSE(solver::krylov_method_from_name("richardson").has_value());
  EXPECT_FALSE(solver::krylov_method_from_name("").has_value());
}

TEST(SolverSession, SetupOnceSolveTwiceReusesState) {
  auto [m, prob] = small_problem(11, 1500);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 300;
  cfg.rel_tol = 1e-8;
  core::SolverSession session;
  EXPECT_FALSE(session.ready());
  session.setup(m, prob, cfg);
  ASSERT_TRUE(session.ready());
  EXPECT_GT(session.num_subdomains(), 1);
  const double setup_s = session.setup_seconds();
  EXPECT_GT(setup_s, 0.0);

  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = session.solve(prob.b, x1);
  const auto r2 = session.solve(prob.b, x2);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  // Same system, same prepared state: identical iteration counts and
  // solutions, and zero additional setup time after the first solve.
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(session.setup_seconds(), setup_s);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_EQ(x1[i], x2[i]);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x1), 1e-7);
}

TEST(SolverSession, SolveManyMatchesIndividualSolves) {
  auto [m, prob] = small_problem(13, 1000);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 300;
  cfg.track_history = false;
  core::SolverSession session;
  session.setup(m, prob, cfg);

  // Three right-hand sides: the assembled b and two scaled copies.
  std::vector<std::vector<double>> rhs(3, prob.b);
  for (double& v : rhs[1]) v *= 2.0;
  for (double& v : rhs[2]) v *= -0.5;
  std::vector<std::vector<double>> xs;
  const auto results = session.solve_many(rhs, xs);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_EQ(xs.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].converged) << i;
    EXPECT_LT(fem::relative_residual(prob.A, rhs[i], xs[i]), 1e-5) << i;
  }
  // Linearity sanity: x[1] ≈ 2 x[0].
  for (std::size_t j = 0; j < xs[0].size(); j += 97) {
    EXPECT_NEAR(xs[1][j], 2.0 * xs[0][j],
                1e-5 * (1.0 + std::abs(xs[1][j])));
  }
}

TEST(SolverSession, MethodDefaultsFollowPrecondTraits) {
  auto [m, prob] = small_problem(17, 800);
  core::HybridConfig cfg;
  cfg.subdomain_target_nodes = 250;
  cfg.max_iterations = 5;
  cfg.track_history = false;
  core::SolverSession session;

  cfg.preconditioner = "none";
  session.setup(m, prob, cfg);
  EXPECT_EQ(session.method(), solver::KrylovMethod::kCg);

  // Aliases default like their canonical name.
  cfg.preconditioner = "identity";
  session.setup(m, prob, cfg);
  EXPECT_EQ(session.method(), solver::KrylovMethod::kCg);

  cfg.preconditioner = "jacobi";
  session.setup(m, prob, cfg);
  EXPECT_EQ(session.method(), solver::KrylovMethod::kPcg);

  const gnn::DssModel model = tiny_model();
  cfg.preconditioner = "ddm-gnn";
  cfg.model = &model;
  session.setup(m, prob, cfg);
  EXPECT_EQ(session.method(), solver::KrylovMethod::kFpcg);

  // Explicit selection wins over the trait default, and the SolveResult
  // method string is prefixed with the selector's canonical name.
  cfg.preconditioner = "ddm-lu";
  cfg.method = solver::KrylovMethod::kFpcg;
  cfg.max_iterations = 500;
  session.setup(m, prob, cfg);
  EXPECT_EQ(session.method(), solver::KrylovMethod::kFpcg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_EQ(res.method, std::string("fpcg+ddm-lu"));
}

TEST(SolverSession, UnknownPreconditionerNameThrowsBeforeAnySetup) {
  auto [m, prob] = small_problem(19, 600);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-quantum";
  core::SolverSession session;
  EXPECT_THROW(session.setup(m, prob, cfg), ContractError);
  EXPECT_FALSE(session.ready());
  std::vector<double> x(prob.b.size(), 0.0);
  EXPECT_THROW(session.solve(prob.b, x), ContractError);
}

// A tolerance or iteration budget no solve can meet fails setup before the
// decomposition, naming the field, on the mesh and the matrix-first paths.
TEST(SolverSession, BadToleranceOrIterationBudgetThrowsBeforeAnySetup) {
  auto [m, prob] = small_problem(23, 600);
  struct Case {
    double rel_tol;
    int max_iterations;
    const char* field;
  };
  const Case cases[] = {
      {0.0, 500, "rel_tol"},
      {-1.0, 500, "rel_tol"},
      {std::nan(""), 500, "rel_tol"},
      {1e-8, 0, "max_iterations"},
  };
  for (const Case& c : cases) {
    core::HybridConfig cfg;
    cfg.preconditioner = "ddm-lu";
    cfg.subdomain_target_nodes = 250;
    cfg.rel_tol = c.rel_tol;
    cfg.max_iterations = c.max_iterations;
    for (const bool algebraic : {false, true}) {
      core::SolverSession session;
      try {
        if (algebraic) {
          session.setup(prob.A, cfg);
        } else {
          session.setup(m, prob, cfg);
        }
        ADD_FAILURE() << "expected ContractError for rel_tol=" << c.rel_tol
                      << " max_iterations=" << c.max_iterations;
      } catch (const ContractError& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << e.what();
      }
      EXPECT_FALSE(session.ready());
      EXPECT_EQ(session.num_subdomains(), 0) << "decomposed before the check";
    }
  }
}

TEST(SolverSession, FailedReSetupLeavesSessionNotReady) {
  auto [m, prob] = small_problem(29, 600);
  core::HybridConfig cfg;
  cfg.preconditioner = "jacobi";
  core::SolverSession session;
  session.setup(m, prob, cfg);
  ASSERT_TRUE(session.ready());
  // A failed re-setup must not leave the session keyed to the old problem.
  cfg.preconditioner = "ddm-gn";  // typo
  EXPECT_THROW(session.setup(m, prob, cfg), ContractError);
  EXPECT_FALSE(session.ready());
  std::vector<double> x(prob.b.size(), 0.0);
  EXPECT_THROW(session.solve(prob.b, x), ContractError);
}

// Setup is deterministic: two fresh sessions on one problem report the same
// decomposition and solve bit for bit alike.
TEST(SessionSetup, FreshSessionsSolveBitwiseIdentically) {
  auto [m, prob] = small_problem(23, 1200);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 300;
  core::SolverSession first;
  first.setup(m, prob, cfg);
  std::vector<double> x_first(prob.b.size(), 0.0);
  const auto res_first = first.solve(prob.b, x_first);
  EXPECT_TRUE(res_first.converged);
  EXPECT_GT(first.num_subdomains(), 1);
  EXPECT_GT(first.setup_seconds(), 0.0);

  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  EXPECT_EQ(res.iterations, res_first.iterations);
  EXPECT_EQ(session.num_subdomains(), first.num_subdomains());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_first[i]);
}

// Above la::kParallelThreshold rows every Krylov dot product runs as a
// parallel sum; its partials are added in a fixed order, so two solves of
// one system on one session at 4 threads return the same bits.
TEST(SessionSetup, RepeatSolvesAboveParallelThresholdAreBitwiseIdentical) {
  test::ThreadGuard guard;
  set_num_threads(test::sweep_threads().back());  // 4; 1 under TSan
  auto [m, prob] = small_problem(31, 12000);
  ASSERT_GT(prob.A.rows(), la::kParallelThreshold);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 350;
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = session.solve(prob.b, x1);
  const auto r2 = session.solve(prob.b, x2);
  EXPECT_TRUE(r1.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0);
}

}  // namespace
