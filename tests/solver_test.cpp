// Krylov solver + classical preconditioner tests: convergence on FEM
// problems, history monotonicity, Algorithm-1 semantics, ASM (one/two level)
// correctness and scalability trend, IC(0)/Jacobi baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.hpp"
#include "fem/poisson.hpp"
#include "la/skyline_cholesky.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/ic0_precond.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"

namespace {

using namespace ddmgnn;
using la::Index;
using mesh::Point2;

fem::PoissonProblem make_problem(std::uint64_t seed, double h = 0.06) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), h, seed);
  const auto data = fem::sample_quadratic_data(seed);
  return fem::assemble_poisson(
      m, [&](const Point2& p) { return data.f(p); },
      [&](const Point2& p) { return data.g(p); });
}

struct MeshAndProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

MeshAndProblem make_mesh_problem(std::uint64_t seed, double h = 0.06) {
  mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(seed), h, seed);
  const auto data = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return data.f(p); },
      [&](const Point2& p) { return data.g(p); });
  return {std::move(m), std::move(prob)};
}

TEST(Cg, ConvergesAndMatchesDirectSolve) {
  const auto prob = make_problem(1);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::conjugate_gradient(prob.A, prob.b, x,
                                              {.max_iterations = 5000,
                                               .rel_tol = 1e-10});
  EXPECT_TRUE(res.converged);
  const la::SkylineCholesky chol(prob.A);
  const auto x_ref = chol.solve(prob.b);
  EXPECT_LT(la::dist2(x, x_ref) / la::norm2(x_ref), 1e-7);
}

TEST(Cg, HistoryStartsAtOneAndEndsBelowTol) {
  const auto prob = make_problem(2);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::conjugate_gradient(prob.A, prob.b, x,
                                              {.rel_tol = 1e-6});
  ASSERT_TRUE(res.converged);
  ASSERT_FALSE(res.history.empty());
  EXPECT_NEAR(res.history.front(), 1.0, 1e-12);  // x0 = 0
  EXPECT_LE(res.history.back(), 1e-6);
  EXPECT_EQ(static_cast<int>(res.history.size()), res.iterations + 1);
}

TEST(Pcg, JacobiReducesIterationsVsCg) {
  const auto prob = make_problem(3);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto plain = solver::conjugate_gradient(prob.A, prob.b, x1);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  const auto pre = solver::pcg(prob.A, jac, prob.b, x2);
  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(pre.converged);
  EXPECT_LE(pre.iterations, plain.iterations);
}

TEST(Pcg, Ic0BeatsJacobi) {
  const auto prob = make_problem(4);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  const precond::Ic0Preconditioner ic(prob.A);
  const auto rj = solver::pcg(prob.A, jac, prob.b, x1);
  const auto ri = solver::pcg(prob.A, ic, prob.b, x2);
  EXPECT_TRUE(ri.converged);
  EXPECT_LT(ri.iterations, rj.iterations);
}

// With z = r every α, β and residual of Algorithm 1 is plain CG's, so the
// two solves agree bit for bit: iterations, iterates and history.
TEST(Pcg, IdentityPreconditionerEqualsCg) {
  const auto prob = make_problem(5, 0.09);
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto cg = solver::conjugate_gradient(prob.A, prob.b, x1);
  const precond::IdentityPreconditioner id;
  const auto pcg_id = solver::pcg(prob.A, id, prob.b, x2);
  EXPECT_EQ(cg.method, "cg");
  EXPECT_EQ(cg.iterations, pcg_id.iterations);
  EXPECT_EQ(std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)), 0);
  ASSERT_EQ(cg.history.size(), pcg_id.history.size());
  EXPECT_EQ(std::memcmp(cg.history.data(), pcg_id.history.data(),
                        cg.history.size() * sizeof(double)),
            0);
}

TEST(AsmPrecond, TwoLevelLuConvergesFast) {
  auto [m, prob] = make_mesh_problem(6, 0.045);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 400, 2, 6);
  precond::AdditiveSchwarz ddm_lu(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::pcg(prob.A, ddm_lu, prob.b, x, {.rel_tol = 1e-6});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 60);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x), 1e-6);
}

TEST(AsmPrecond, TwoLevelBeatsOneLevelWithManySubdomains) {
  auto [m, prob] = make_mesh_problem(7, 0.04);
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 150, 2, 7);
  ASSERT_GT(dec.num_parts, 10);
  precond::AdditiveSchwarz one(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      /*coarse=*/nullptr);
  precond::AdditiveSchwarz two(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = solver::pcg(prob.A, one, prob.b, x1);
  const auto r2 = solver::pcg(prob.A, two, prob.b, x2);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(AsmPrecond, LargerOverlapConvergesFaster) {
  auto [m, prob] = make_mesh_problem(8, 0.045);
  int iters[2] = {0, 0};
  int idx = 0;
  for (const int overlap : {1, 4}) {
    const auto dec =
        partition::decompose_target_size(m.adj_ptr(), m.adj(), 300, overlap, 8);
    precond::AdditiveSchwarz ddm(
        prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
        std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
    std::vector<double> x(prob.b.size(), 0.0);
    iters[idx++] = solver::pcg(prob.A, ddm, prob.b, x).iterations;
  }
  EXPECT_LE(iters[1], iters[0]);
}

TEST(AsmPrecond, ApplyIsLinear) {
  auto [m, prob] = make_mesh_problem(9, 0.08);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 9);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  const std::size_t n = prob.b.size();
  Rng rng(10);
  std::vector<double> u(n), v(n), zu(n), zv(n), zw(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform(-1, 1);
    v[i] = rng.uniform(-1, 1);
    w[i] = 2.0 * u[i] - 3.0 * v[i];
  }
  ddm.apply(u, zu);
  ddm.apply(v, zv);
  ddm.apply(w, zw);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(zw[i], 2.0 * zu[i] - 3.0 * zv[i], 1e-9);
  }
}

TEST(AsmPrecond, ApplyIsSymmetric) {
  // <M⁻¹u, v> == <u, M⁻¹v> — required for plain PCG validity (DDM-LU case).
  auto [m, prob] = make_mesh_problem(11, 0.09);
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 11);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  EXPECT_TRUE(ddm.is_symmetric());
  const std::size_t n = prob.b.size();
  Rng rng(12);
  std::vector<double> u(n), v(n), zu(n), zv(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = rng.uniform(-1, 1);
    v[i] = rng.uniform(-1, 1);
  }
  ddm.apply(u, zu);
  ddm.apply(v, zv);
  EXPECT_NEAR(la::dot(zu, v), la::dot(u, zv),
              1e-8 * std::abs(la::dot(zu, v)) + 1e-10);
}

TEST(FlexiblePcg, MatchesPcgForFixedSpdPreconditioner) {
  const auto prob = make_problem(13, 0.08);
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  const auto r1 = solver::pcg(prob.A, jac, prob.b, x1);
  const auto r2 = solver::flexible_pcg(prob.A, jac, prob.b, x2);
  EXPECT_TRUE(r2.converged);
  // Flexible PCG reduces to PCG for a constant SPD M (same Krylov space).
  EXPECT_NEAR(r1.iterations, r2.iterations, 2);
}

TEST(Solvers, IterationCountGrowsWithProblemSizeForPlainCg) {
  // Conditioning degrades with N (paper: CG column of Table I).
  const auto small = make_problem(18, 0.09);
  const auto large = make_problem(18, 0.04);
  std::vector<double> x1(small.b.size(), 0.0), x2(large.b.size(), 0.0);
  const auto r_small = solver::conjugate_gradient(small.A, small.b, x1);
  const auto r_large = solver::conjugate_gradient(large.A, large.b, x2);
  EXPECT_GT(r_large.iterations, r_small.iterations);
}

}  // namespace
