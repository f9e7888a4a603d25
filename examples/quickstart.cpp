// Quickstart: the 60-second tour of the library.
//   1. generate a random smooth domain and mesh it            (src/mesh)
//   2. discretize -Δu = f, u|∂Ω = g with P1 elements          (src/fem)
//   3. open a SolverSession per preconditioner: setup() builds the
//      decomposition/factorizations/coarse space ONCE, then every solve()
//      pays only iteration cost                               (src/core)
// Preconditioners are picked by table name ("none", "ddm-lu", "ddm-gnn",
// ... — see precond::preconditioner_names()); the Krylov method defaults
// from the preconditioner's symmetry (flexible PCG for the GNN).
// DDM-GNN needs a trained model: the model zoo trains a small one on first
// use (cached under ./artifacts), which takes a few minutes at the default
// scale — run with DDMGNN_BENCH_SCALE=smoke for a fast first contact.
#include <cstdio>

#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "mesh/generator.hpp"

int main() {
  using namespace ddmgnn;

  // 1. Mesh a random smooth domain (paper §IV-A geometry).
  const std::uint64_t seed = 1;
  const mesh::Domain domain = mesh::random_domain(seed);
  const mesh::Mesh m = mesh::generate_mesh_target_nodes(domain, 4000, seed);
  std::printf("mesh: %d nodes, %d triangles\n", m.num_nodes(),
              m.num_triangles());

  // 2. Assemble the FEM Poisson system A u = b with random quadratic data.
  const fem::QuadraticData data = fem::sample_quadratic_data(seed);
  const fem::PoissonProblem prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return data.f(p); },
      [&](const mesh::Point2& p) { return data.g(p); });

  // 3. Solve with plain CG, the classical two-level Schwarz (DDM-LU), and
  //    the paper's GNN-preconditioned hybrid (DDM-GNN).
  const gnn::DssModel model =
      core::get_or_train_model(core::default_spec(10, 10));
  core::HybridConfig cfg;
  cfg.subdomain_target_nodes = 350;
  cfg.rel_tol = 1e-6;
  cfg.model = &model;
  std::vector<double> x(prob.b.size());
  for (const char* name : {"none", "ddm-lu", "ddm-gnn"}) {
    cfg.preconditioner = name;
    core::SolverSession session;
    session.setup(m, prob, cfg);  // one-time cost, amortized over solves
    std::fill(x.begin(), x.end(), 0.0);
    const auto res = session.solve(prob.b, x);
    std::printf("%-8s: %4d iterations, rel.residual %.2e, setup %.3fs + "
                "solve %.3fs (%s) %s\n",
                name, res.iterations, res.final_relative_residual,
                session.setup_seconds(), res.total_seconds,
                res.method.c_str(), res.converged ? "" : "(not converged)");
    if (!res.converged) return 1;
  }
  return 0;
}
