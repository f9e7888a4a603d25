// Weak-scaling study across hierarchy depth (ours — quantifies the paper's
// §II-A/§V claim that the coarse correction makes the preconditioner
// scalable, and extends it to the multi-level question): fix the subdomain
// size Ns, grow the global problem (so K ∝ N), and sweep the coarse-
// hierarchy depth mg_levels = 1..4 for both ddm-lu and ddm-gnn.
//
// mg_levels = 1 is the classic two-level method (one-shot dense Nicolaides
// coarse solve, K×K factor); mg_levels >= 2 replaces it with the smoothed-
// aggregation V-cycle, whose dense factor lives on a far smaller coarsest
// operator. Expected shape: iteration counts stay within a small factor of
// the two-level baseline (the cycle is an approximate coarse solve) while
// the dense-factor bytes collapse as N — and with it K — grows.
//
// Emits artifacts/bench_weak_scaling_multilevel_<threads>core.json with one
// record per (precond, N, mg_levels): per-level rows/nnz, setup vs solve
// seconds, iterations, and the coarse component's memory/dense-factor bytes.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "mg/vcycle.hpp"
#include "precond/asm_precond.hpp"

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddmgnn;
  // Default to one core so committed artifacts are comparable run-to-run;
  // --threads N opts into a wider sweep (reflected in the artifact name).
  if (bench::find_flag(argc, argv, "--threads") == nullptr) set_num_threads(1);
  const int threads = bench::apply_thread_flag(argc, argv);
  bench::print_header(
      "Weak scaling across hierarchy depth: mg_levels 1..4 (fixed Ns)");

  const core::ZooSpec spec = core::default_spec(10, 10);
  const gnn::DssModel model = core::get_or_train_model(spec);

  std::vector<double> n_factors;
  switch (bench_scale()) {
    case BenchScale::kSmoke: n_factors = {1.0, 2.0}; break;
    case BenchScale::kPaper: n_factors = {1.0, 4.0, 16.0, 40.0, 80.0}; break;
    default: n_factors = {1.0, 3.0, 8.0, 16.0}; break;
  }
  const std::vector<int> level_sweep = {1, 2, 3, 4};

  std::vector<bench::JsonRecord> records;
  // iters[precond][n_index][mg_levels] for the closing shape check.
  int baseline_iters[2] = {0, 0};
  int three_level_iters[2] = {0, 0};
  std::size_t baseline_factor_bytes[2] = {0, 0};
  std::size_t three_level_factor_bytes[2] = {0, 0};

  for (std::size_t ni = 0; ni < n_factors.size(); ++ni) {
    auto [m, prob] = bench::make_problem(
        static_cast<la::Index>(n_factors[ni] *
                               spec.dataset.mesh_target_nodes),
        2222);
    const bool largest = ni + 1 == n_factors.size();
    std::printf("\nN=%d\n", m.num_nodes());
    std::printf("%12s %7s | %6s %9s %9s | %12s %12s | %s\n", "precond",
                "levels", "iters", "setup_s", "solve_s", "coarse_bytes",
                "factor_bytes", "level rows");
    int pi = 0;
    for (const char* name : {"ddm-lu", "ddm-gnn"}) {
      for (const int levels : level_sweep) {
        core::HybridConfig cfg;
        cfg.preconditioner = name;
        cfg.subdomain_target_nodes = spec.dataset.subdomain_target_nodes;
        cfg.rel_tol = 1e-6;
        cfg.max_iterations = 4000;
        cfg.model = &model;
        cfg.track_history = false;
        cfg.mg_levels = levels;

        core::SolverSession session;
        session.setup(m, prob, cfg);
        std::vector<double> x(m.num_nodes(), 0.0);
        const double t0 = now_seconds();
        const solver::SolveResult res = session.solve(prob.b, x);
        const double solve_seconds = now_seconds() - t0;

        const auto* schwarz = dynamic_cast<const precond::AdditiveSchwarz*>(
            &session.preconditioner());
        DDMGNN_CHECK(schwarz != nullptr && schwarz->coarse_component(),
                     "weak-scaling bench expects a two-or-more-level ASM");
        const partition::CoarseComponent& coarse =
            *schwarz->coarse_component();
        std::vector<long> level_rows, level_nnz;
        if (const auto* cycle = dynamic_cast<const mg::VCycle*>(&coarse)) {
          for (const la::Index r : cycle->hierarchy().level_rows())
            level_rows.push_back(r);
          for (const la::Offset z : cycle->hierarchy().level_nnz())
            level_nnz.push_back(z);
        } else {
          // Nicolaides: a two-level method — fine grid plus the K×K coarse
          // operator (dense, so nnz = K²).
          const long k = session.num_subdomains();
          level_rows = {static_cast<long>(m.num_nodes()), k};
          level_nnz = {static_cast<long>(prob.A.nnz()), k * k};
        }

        records.push_back(
            bench::JsonRecord()
                .add("record", std::string("run"))
                .add("precond", std::string(name))
                .add("coarse", coarse.name())
                .add("n", m.num_nodes())
                .add("k", static_cast<int>(session.num_subdomains()))
                .add("mg_levels", levels)
                .add("level_rows", level_rows)
                .add("level_nnz", level_nnz)
                .add("setup_seconds", session.setup_seconds())
                .add("solve_seconds", solve_seconds)
                .add("precond_seconds", res.precond_seconds)
                .add("iters", res.iterations)
                .add("converged", res.converged)
                .add("rel_residual", res.final_relative_residual)
                .add("coarse_memory_bytes",
                     static_cast<double>(coarse.memory_bytes()))
                .add("dense_factor_bytes",
                     static_cast<double>(coarse.dense_factor_bytes())));

        std::string rows_str;
        for (std::size_t i = 0; i < level_rows.size(); ++i) {
          if (i > 0) rows_str += '>';
          rows_str += std::to_string(level_rows[i]);
        }
        std::printf("%12s %7d | %6d %9.3f %9.3f | %12zu %12zu | %s%s\n", name,
                    levels, res.converged ? res.iterations : -1,
                    session.setup_seconds(), solve_seconds,
                    coarse.memory_bytes(), coarse.dense_factor_bytes(),
                    rows_str.c_str(), res.converged ? "" : "  (DIVERGED)");
        std::fflush(stdout);

        if (largest && levels == 1) {
          baseline_iters[pi] = res.converged ? res.iterations : -1;
          baseline_factor_bytes[pi] = coarse.dense_factor_bytes();
        }
        if (largest && levels == 2) {  // 3-level method counting the fine grid
          three_level_iters[pi] = res.converged ? res.iterations : -1;
          three_level_factor_bytes[pi] = coarse.dense_factor_bytes();
        }
      }
      ++pi;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(artifact_dir(), ec);
  const std::string path = artifact_dir() + "/bench_weak_scaling_multilevel_" +
                           std::to_string(threads) + "core.json";
  bench::write_json(path, records);
  std::printf("\nwrote %s\n", path.c_str());

  // Shape check at the largest N: the 3-level method (mg_levels=2) should
  // converge within 1.2x the two-level iteration count while its dense
  // coarsest factor is far smaller than the K×K Nicolaides factor.
  bool ok = true;
  const char* names[2] = {"ddm-lu", "ddm-gnn"};
  for (int i = 0; i < 2; ++i) {
    const bool iters_ok =
        three_level_iters[i] > 0 && baseline_iters[i] > 0 &&
        three_level_iters[i] <= (baseline_iters[i] * 12 + 9) / 10;
    const bool bytes_ok =
        three_level_factor_bytes[i] < baseline_factor_bytes[i];
    std::printf("%s largest-N: 3-level iters %d vs 2-level %d (<=1.2x: %s), "
                "dense factor %zu vs %zu bytes (smaller: %s)\n",
                names[i], three_level_iters[i], baseline_iters[i],
                iters_ok ? "yes" : "NO", three_level_factor_bytes[i],
                baseline_factor_bytes[i], bytes_ok ? "yes" : "NO");
    ok = ok && iters_ok && bytes_ok;
  }
  if (bench::has_flag(argc, argv, "--require-shape") && !ok) {
    std::printf("FAIL: multi-level shape check\n");
    return 1;
  }
  return 0;
}
