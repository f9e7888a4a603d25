// Tests for the stationary Schwarz iteration (paper Eq. 8): it must converge
// as a fixed-point solver and be strictly slower than its PCG-accelerated
// form.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "fem/poisson.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/preconditioner.hpp"
#include "solver/stationary.hpp"

namespace {

using namespace ddmgnn;
using mesh::Point2;

/// Largest eigenvalue of M⁻¹A by power iteration (M⁻¹A is similar to an SPD
/// operator for SPD M, so the dominant eigenvalue is real positive).
double estimate_lambda_max(const la::CsrMatrix& a,
                           const precond::Preconditioner& m, int iters = 30) {
  Rng rng(123);
  std::vector<double> v(a.rows()), av(a.rows()), mav(a.rows());
  for (double& x : v) x = rng.uniform(-1, 1);
  double lambda = 1.0;
  for (int i = 0; i < iters; ++i) {
    a.multiply(v, av);
    m.apply(av, mav);
    lambda = la::norm2(mav) / std::max(1e-300, la::norm2(v));
    const double inv = 1.0 / std::max(1e-300, la::norm2(mav));
    for (std::size_t j = 0; j < v.size(); ++j) v[j] = mav[j] * inv;
  }
  return lambda;
}

TEST(Stationary, AsmFixedPointWithSafeDampingAndPcgIsFaster) {
  // Overlapping *additive* Schwarz does NOT converge as an undamped
  // fixed-point method (overlap regions are corrected multiple times:
  // λmax(M⁻¹A) > 2) — the textbook reason it is used as a preconditioner
  // (paper §II-A). With damping < 2/λmax Richardson contracts; PCG on the
  // same operator is much faster still.
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(7), 0.05, 7);
  const auto q = fem::sample_quadratic_data(7);
  const auto prob = fem::assemble_poisson(
      m, [&](const Point2& p) { return q.f(p); },
      [&](const Point2& p) { return q.g(p); });
  const auto dec =
      partition::decompose_target_size(m.adj_ptr(), m.adj(), 300, 2, 7);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));

  const double lambda_max = estimate_lambda_max(prob.A, ddm);
  EXPECT_GT(lambda_max, 1.0);   // overlap + coarse => eigenvalues above 1
  EXPECT_LT(lambda_max, 20.0);  // but bounded by the overlap coloring
  const double damping = 1.0 / lambda_max;

  std::vector<double> x1(prob.b.size(), 0.0), x2(prob.b.size(), 0.0);
  solver::SolveOptions opts;
  opts.rel_tol = 1e-6;
  opts.max_iterations = 5000;
  const auto fixed =
      solver::stationary_iteration(prob.A, ddm, prob.b, x1, opts, damping);
  EXPECT_TRUE(fixed.converged);
  EXPECT_LT(fem::relative_residual(prob.A, prob.b, x1), 1e-5);

  const auto accel = solver::pcg(prob.A, ddm, prob.b, x2, opts);
  EXPECT_TRUE(accel.converged);
  // Krylov acceleration strictly beats the stationary form.
  EXPECT_LT(accel.iterations, fixed.iterations);
}

TEST(Stationary, UndampedOverlappingAsmDiverges) {
  // The complementary property: damping 1.0 (the raw Eq. 8 fixed point with
  // the *additive* overlap variant) fails to contract.
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(9), 0.09, 9);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 6, 2, 9);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  std::vector<double> x(prob.b.size(), 0.0);
  solver::SolveOptions opts;
  opts.rel_tol = 1e-10;
  opts.max_iterations = 60;
  const auto res =
      solver::stationary_iteration(prob.A, ddm, prob.b, x, opts, 1.0);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.final_relative_residual, 1e-3);
}

TEST(Stationary, JacobiRichardsonConvergesOnMMatrix) {
  // The FEM Laplacian (with identity Dirichlet rows) is an irreducibly
  // diagonally dominant M-matrix: classical Jacobi iteration converges
  // undamped, and halving the step slows it down.
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(9), 0.12, 9);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const precond::JacobiPreconditioner jac(prob.A.diagonal());
  solver::SolveOptions opts;
  opts.rel_tol = 1e-8;
  opts.max_iterations = 400;
  std::vector<double> x_damped(prob.b.size(), 0.0);
  const auto damped = solver::stationary_iteration(prob.A, jac, prob.b,
                                                   x_damped, opts, 0.5);
  std::vector<double> x_raw(prob.b.size(), 0.0);
  const auto raw =
      solver::stationary_iteration(prob.A, jac, prob.b, x_raw, opts, 1.0);
  EXPECT_LE(raw.final_relative_residual,
            damped.final_relative_residual * 1.01);
}

TEST(Stationary, HistoryDecreasesGeometricallyForDampedAsm) {
  const mesh::Mesh m = mesh::generate_mesh(mesh::random_domain(11), 0.08, 11);
  const auto prob = fem::assemble_poisson(
      m, [](const Point2&) { return 1.0; }, [](const Point2&) { return 0.0; });
  const auto dec = partition::decompose(m.adj_ptr(), m.adj(), 4, 2, 11);
  precond::AdditiveSchwarz ddm(
      prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
  const double damping = 0.9 / estimate_lambda_max(prob.A, ddm);
  std::vector<double> x(prob.b.size(), 0.0);
  solver::SolveOptions opts;
  opts.rel_tol = 1e-8;
  opts.max_iterations = 3000;
  const auto res =
      solver::stationary_iteration(prob.A, ddm, prob.b, x, opts, damping);
  ASSERT_TRUE(res.converged);
  // Roughly geometric decrease: each 20 iterations reduce the residual.
  for (std::size_t i = 20; i < res.history.size(); i += 20) {
    EXPECT_LT(res.history[i], res.history[i - 20]);
  }
}

}  // namespace
