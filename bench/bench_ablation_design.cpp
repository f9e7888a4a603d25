// Ablation bench (ours — design choices DESIGN.md calls out, several of which
// the paper motivates but does not quantify):
//   A. §III-A residual normalization on/off — the paper's stagnation argument;
//   B. two-level vs one-level DDM-GNN — the coarse space's scalability claim;
//   C. Dirichlet-flag input channel on/off (our documented deviation);
//   D. inference-time refinement passes 0/1/2/3 (our training-budget
//      compensation knob);
//   E. plain PCG (Alg. 1, as the paper uses) vs flexible PCG for the
//      non-symmetric GNN preconditioner.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dataset.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "gnn/trainer.hpp"

namespace {

using namespace ddmgnn;

void report(const char* label, const bench::RunReport& rep) {
  std::printf("  %-34s iters=%-6d final=%.2e  T=%.3fs %s\n", label,
              rep.result.iterations, rep.result.final_relative_residual,
              rep.result.total_seconds,
              rep.result.converged ? "" : "(NOT converged)");
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace ddmgnn;
  bench::print_header("Ablations: normalization / coarse level / flag / "
                      "refinement / PCG variant");

  core::ZooSpec spec = core::default_spec(10, 10);
  const core::DssDataset data = core::generate_dataset(spec.dataset);
  const gnn::DssModel model = core::get_or_train_model(spec, &data);

  const double nf = bench_scale() == BenchScale::kSmoke ? 1.5 : 4.0;
  auto [m, prob] = bench::make_problem(
      static_cast<la::Index>(nf * spec.dataset.mesh_target_nodes), 404);
  std::printf("problem: N=%d\n\n", m.num_nodes());

  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-gnn";  // non-symmetric: defaults to flexible PCG
  cfg.subdomain_target_nodes = spec.dataset.subdomain_target_nodes;
  cfg.rel_tol = 1e-6;
  cfg.max_iterations = 2500;
  cfg.model = &model;
  cfg.track_history = false;

  std::printf("A. residual normalization (paper's anti-stagnation fix):\n");
  report("normalized (paper)", bench::run_session(m, prob, cfg));
  cfg.gnn_normalize = false;
  report("un-normalized", bench::run_session(m, prob, cfg));
  cfg.gnn_normalize = true;

  std::printf("B. coarse-space level:\n");
  report("two-level (paper)", bench::run_session(m, prob, cfg));
  cfg.mg_levels = 0;
  report("one-level", bench::run_session(m, prob, cfg));
  cfg.mg_levels = 1;

  std::printf("C. Dirichlet-flag input channel (our deviation):\n");
  {
    core::ZooSpec no_flag = spec;
    no_flag.model.dirichlet_flag = false;
    no_flag.tag += "-noflag";
    // Equal (reduced) budgets for a fair pair.
    core::ZooSpec with_flag = spec;
    with_flag.tag += "-flagpair";
    for (core::ZooSpec* s : {&no_flag, &with_flag}) {
      s->training.epochs = std::max(8, s->training.epochs / 3);
      s->training.wall_clock_budget_s =
          std::max(10.0, s->training.wall_clock_budget_s / 3.0);
    }
    const gnn::DssModel m_noflag = core::get_or_train_model(no_flag, &data);
    const gnn::DssModel m_flag = core::get_or_train_model(with_flag, &data);
    cfg.model = &m_flag;
    report("with flag (equal budget)", bench::run_session(m, prob, cfg));
    cfg.model = &m_noflag;
    report("without flag (strict paper arch)",
           bench::run_session(m, prob, cfg));
    cfg.model = &model;
  }

  std::printf("D. inference-time refinement passes:\n");
  for (const int steps : {0, 1, 2, 3}) {
    cfg.gnn_refinement_steps = steps;
    char label[64];
    std::snprintf(label, sizeof(label), "refinement=%d%s", steps,
                  steps == 0 ? " (paper protocol)" : "");
    report(label, bench::run_session(m, prob, cfg));
  }
  cfg.gnn_refinement_steps = 0;

  std::printf("E. Krylov variant for the non-symmetric GNN preconditioner:\n");
  cfg.method = solver::KrylovMethod::kPcg;
  report("plain PCG (Algorithm 1)", bench::run_session(m, prob, cfg));
  cfg.method = solver::KrylovMethod::kFpcg;
  report("flexible PCG (Polak-Ribiere)", bench::run_session(m, prob, cfg));
  cfg.method.reset();

  std::printf("\nreference: DDM-LU on the same problem:\n");
  cfg.preconditioner = "ddm-lu";
  report("ddm-lu", bench::run_session(m, prob, cfg));
  return 0;
}
