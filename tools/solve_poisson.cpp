// Legacy-style solver driver (the repository's analogue of an HTSSolver
// command-line run): generate a Poisson problem, pick a preconditioner (by
// table name) and Krylov method (by selector name) from flags, solve
// through a SolverSession, and print a machine-parsable report line.
//
//   solve_poisson --nodes 40000 --precond ddm-gnn --sub-nodes 350
//                 --overlap 2 --tol 1e-6 --krylov fpcg --model artifacts/...
//                 --repeat 1
//
// Matrix-first mode — solve an operator the repository never assembled:
//
//   solve_poisson --matrix system.mtx [--rhs b.mtx] --precond ddm-gnn
//
// loads a MatrixMarket SPD system and runs the algebraic setup path: the
// decomposition comes from the matrix graph and (for the GNN variants) edge
// features from synthetic spectral coordinates. Without --rhs the right-hand
// side is A·1 (manufactured solution = all-ones).
//
// Preconditioners: none | jacobi | ic0 | ddm-lu | ddm-gnn, plus the alias
//                  identity.
// Krylov: cg | pcg | fpcg | richardson (the stationary Eq. 8 iteration;
// damped by --omega, auto power-iteration bound when omitted); default
// picked from the preconditioner's symmetry.
// --repeat N re-solves the same system N times through one session, showing
// the setup cost amortize away.
// Coarse correction (ddm-lu, ddm-gnn): --levels L picks it (0 = none, the
// one-level method; 1 = the dense Nicolaides solve, the default; L>=2
// builds the smoothed-aggregation hierarchy, applied as a V-cycle). When a
// hierarchy is active a per-level stats block (rows / nnz per level,
// dense-factor and total coarse bytes) is printed after setup. An invalid
// setting (a negative --levels, a --tol that is not > 0, a --max-iters
// below 1) exits 2 with the setup error.
// --threads N pins the worker-thread count (reported as threads= on every
// result line so timings stay interpretable).
// --verbose-timing prints a one-line phase summary (setup / iterate /
// precond / coarse seconds) after each solve, sourced from the obs metrics
// registry. --trace out.json captures a Chrome trace_event timeline;
// --metrics out.json dumps the registry snapshot at exit.
// Any other argument (a typo such as --level) exits 2, naming it and
// listing the accepted flags; so does a flag given twice, and a numeric
// value that is not wholly a finite number (--tol 1e-6x), or not a whole
// number for an integer flag (--nodes abc, --threads 2.5). A --nodes value
// the mesh generator rejects (--nodes -5) exits 2 with its error.
#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/model_zoo.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/model_io.hpp"
#include "la/mm_io.hpp"
#include "mesh/generator.hpp"
#include "mg/vcycle.hpp"
#include "obs/flags.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "solver/stationary.hpp"

namespace {

// The accepted flags: each value flag takes the next argument.
constexpr const char* kValueFlags[] = {
    "--nodes", "--seed", "--matrix", "--rhs", "--precond", "--krylov",
    "--sub-nodes", "--overlap", "--tol", "--max-iters", "--refine",
    "--levels", "--model", "--omega", "--repeat", "--threads", "--trace",
    "--metrics"};
constexpr const char* kSwitches[] = {"--verbose-timing"};

bool is_one_of(const char* arg, std::span<const char* const> names) {
  for (const char* name : names) {
    if (std::strcmp(arg, name) == 0) return true;
  }
  return false;
}

/// False (after printing why) when an argument is not an accepted flag, a
/// flag is given twice, or a value flag lacks its value.
bool flags_accepted(int argc, char** argv) {
  std::vector<std::string_view> seen;
  for (int i = 1; i < argc; ++i) {
    const bool is_switch = is_one_of(argv[i], kSwitches);
    if (!is_switch && !is_one_of(argv[i], kValueFlags)) {
      std::fprintf(stderr, "unknown flag %s; accepted:", argv[i]);
      for (const char* name : kValueFlags) std::fprintf(stderr, " %s", name);
      for (const char* name : kSwitches) std::fprintf(stderr, " %s", name);
      std::fprintf(stderr, "\n");
      return false;
    }
    if (std::find(seen.begin(), seen.end(), argv[i]) != seen.end()) {
      std::fprintf(stderr, "%s given more than once\n", argv[i]);
      return false;
    }
    seen.emplace_back(argv[i]);
    if (is_switch || ++i < argc) continue;
    std::fprintf(stderr, "%s needs a value\n", argv[i - 1]);
    return false;
  }
  return true;
}

const char* arg_str(int argc, char** argv, const char* name,
                    const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// The value of numeric flag `name`, or `fallback` when it is absent. Exits
/// 2, naming the flag and the value, unless the value is wholly a finite
/// number and, if `integral`, a whole number an int holds.
double arg_num(int argc, char** argv, const char* name, double fallback,
               bool integral) {
  const char* s = arg_str(argc, argv, name, nullptr);
  if (s == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  const bool ok = end != s && *end == '\0' && std::isfinite(v) &&
                  !std::isspace(static_cast<unsigned char>(*s)) &&
                  (!integral ||
                   (v == std::trunc(v) && v >= INT_MIN && v <= INT_MAX));
  if (!ok) {
    std::fprintf(stderr, "%s %s: not a %s\n", name, s,
                 integral ? "whole number within int range" : "finite number");
    std::exit(2);
  }
  return v;
}

int arg_int(int argc, char** argv, const char* name, int fallback) {
  return static_cast<int>(arg_num(argc, argv, name, fallback, true));
}

double arg_real(int argc, char** argv, const char* name, double fallback) {
  return arg_num(argc, argv, name, fallback, false);
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

double gauge_value(const char* name) {
  const ddmgnn::obs::Gauge* g =
      ddmgnn::obs::Registry::instance().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

/// Registry snapshot of the phase gauges the --verbose-timing summary is
/// diffed against (per solve, so repeat runs show their own share).
struct PhaseSnapshot {
  double solve = 0.0;
  double precond = 0.0;
  double coarse = 0.0;

  static PhaseSnapshot take() {
    PhaseSnapshot s;
    s.solve = gauge_value("solver.solve_seconds_total");
    s.precond = gauge_value("solver.precond_seconds_total");
    s.coarse = gauge_value("asm.coarse_seconds");
    return s;
  }
};

void print_phase_summary(const PhaseSnapshot& before, double setup_seconds) {
  const PhaseSnapshot now = PhaseSnapshot::take();
  const double solve = now.solve - before.solve;
  const double precond = now.precond - before.precond;
  const double coarse = now.coarse - before.coarse;
  // "iterate" is the Krylov work outside the preconditioner: SpMV,
  // orthogonalization, vector updates.
  std::printf("timing: setup=%.4f iterate=%.4f precond=%.4f coarse=%.4f\n",
              setup_seconds, solve - precond, precond, coarse);
}

/// Flush --trace / --metrics artifacts; called on every exit path that
/// follows a solve.
void write_obs_outputs(const char* trace_path, const char* metrics_path) {
  if (metrics_path != nullptr) {
    ddmgnn::obs::Registry::instance().write_json(metrics_path);
    std::printf("metrics: %s\n", metrics_path);
  }
  if (trace_path != nullptr) {
    ddmgnn::obs::TraceRecorder::instance().write_chrome_trace(trace_path);
    std::printf("trace: %s\n", trace_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ddmgnn;
  if (!flags_accepted(argc, argv)) return 2;
  // Every numeric flag is read here, before any work, so a malformed value
  // exits 2 at once.
  const la::Index nodes = arg_int(argc, argv, "--nodes", 10000);
  const std::string precond = arg_str(argc, argv, "--precond", "ddm-lu");
  const std::string krylov = arg_str(argc, argv, "--krylov", "");
  const auto seed =
      static_cast<std::uint64_t>(arg_int(argc, argv, "--seed", 1));
  const int repeat = arg_int(argc, argv, "--repeat", 1);
  const double omega_flag = arg_real(argc, argv, "--omega", 0.0);
  core::HybridConfig cfg;
  cfg.preconditioner = precond;
  cfg.subdomain_target_nodes = arg_int(argc, argv, "--sub-nodes", 350);
  cfg.overlap = arg_int(argc, argv, "--overlap", 2);
  cfg.rel_tol = arg_real(argc, argv, "--tol", 1e-6);
  cfg.max_iterations = arg_int(argc, argv, "--max-iters", 5000);
  cfg.gnn_refinement_steps = arg_int(argc, argv, "--refine", 0);
  cfg.mg_levels = arg_int(argc, argv, "--levels", 1);
  cfg.seed = seed;
  // --threads N overrides DDMGNN_THREADS / OMP defaults for this process;
  // the effective count is reported on every result line either way.
  const int threads_flag = arg_int(argc, argv, "--threads", 0);
  if (arg_str(argc, argv, "--threads", nullptr) != nullptr) {
    if (threads_flag <= 0) {
      std::fprintf(stderr, "--threads must be > 0 (got %d)\n", threads_flag);
      return 2;
    }
    set_num_threads(threads_flag);
  }
  const int threads = num_threads();

  const char* trace_path = arg_str(argc, argv, "--trace", nullptr);
  const char* metrics_path = arg_str(argc, argv, "--metrics", nullptr);
  const bool verbose_timing = has_flag(argc, argv, "--verbose-timing");
  if (trace_path != nullptr) obs::set_trace_enabled(true);
  // The phase summary and the snapshot both read registry gauges, so either
  // consumer turns metrics collection on, and so does --trace. Flags are set
  // before setup so the setup.* phases are captured too.
  if (metrics_path != nullptr || trace_path != nullptr || verbose_timing) {
    obs::set_metrics_enabled(true);
  }

  precond::PrecondTraits traits;
  try {
    traits = precond::preconditioner_traits(precond);
  } catch (const ddmgnn::ContractError&) {
    std::fprintf(stderr, "unknown --precond %s; known:", precond.c_str());
    for (const auto& n : precond::preconditioner_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Problem source: either a generated FEM Poisson problem (default) or an
  // external MatrixMarket system (--matrix). `prob` carries A/b/dirichlet in
  // both modes; `m` exists only for the FEM path.
  const char* matrix_path = arg_str(argc, argv, "--matrix", nullptr);
  std::optional<mesh::Mesh> m;
  fem::PoissonProblem prob;
  if (matrix_path != nullptr) {
    try {
      prob.A = la::mm::read_matrix(matrix_path);
      if (prob.A.rows() != prob.A.cols()) {
        std::fprintf(stderr, "--matrix %s: operator must be square (%d x %d)\n",
                     matrix_path, prob.A.rows(), prob.A.cols());
        return 2;
      }
      const char* rhs_path = arg_str(argc, argv, "--rhs", nullptr);
      if (rhs_path != nullptr) {
        prob.b = la::mm::read_vector(rhs_path);
        if (prob.b.size() != static_cast<std::size_t>(prob.A.rows())) {
          std::fprintf(stderr, "--rhs %s: %zu values for a %d-row operator\n",
                       rhs_path, prob.b.size(), prob.A.rows());
          return 2;
        }
      } else {
        // Manufactured solution x* = 1: b = A·1.
        const std::vector<double> ones(prob.A.rows(), 1.0);
        prob.b = prob.A.apply(ones);
      }
    } catch (const ddmgnn::ContractError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    prob.dirichlet.assign(prob.A.rows(), 0);
  } else {
    try {
      m = mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes,
                                           seed);
    } catch (const ddmgnn::ContractError& e) {
      std::fprintf(stderr, "--nodes %d: %s\n", nodes, e.what());
      return 2;
    }
    const auto q = fem::sample_quadratic_data(seed);
    prob = fem::assemble_poisson(
        *m, [&](const mesh::Point2& p) { return q.f(p); },
        [&](const mesh::Point2& p) { return q.g(p); });
  }
  const la::Index problem_nodes =
      matrix_path != nullptr ? prob.A.rows() : m->num_nodes();

  std::optional<gnn::DssModel> model;
  if (traits.needs_model) {
    const char* path = arg_str(argc, argv, "--model", nullptr);
    if (path != nullptr) {
      model = gnn::load_model(path);
      if (!model) {
        std::fprintf(stderr, "cannot load model %s\n", path);
        return 2;
      }
    } else {
      model = core::get_or_train_model(core::default_spec(10, 10));
    }
    cfg.model = &*model;
  }

  if (!krylov.empty() && krylov != "richardson") {
    const auto method = solver::krylov_method_from_name(krylov);
    if (!method) {
      std::fprintf(stderr, "unknown --krylov %s (cg|pcg|fpcg|richardson)\n",
                   krylov.c_str());
      return 2;
    }
    cfg.method = *method;
  }

  core::SolverSession session;
  try {
    if (matrix_path != nullptr) {
      session.setup(prob.A, cfg);  // algebraic path: graph + synthetic coords
    } else {
      session.setup(*m, prob, cfg);
    }
  } catch (const ddmgnn::ContractError& e) {
    std::fprintf(stderr, "setup failed: %s\n", e.what());
    return 2;
  }

  // Per-level hierarchy report (only when an mg coarse component is active).
  if (const auto* schwarz = dynamic_cast<const precond::AdditiveSchwarz*>(
          &session.preconditioner())) {
    if (const auto* cycle = dynamic_cast<const mg::VCycle*>(
            schwarz->coarse_component())) {
      const mg::Hierarchy& h = cycle->hierarchy();
      const auto rows = h.level_rows();
      const auto nnz = h.level_nnz();
      std::printf("mg: cycle=%s coarse_levels=%d dense_factor_bytes=%zu "
                  "coarse_bytes=%zu\n",
                  cycle->name().c_str(), h.num_coarse_levels(),
                  cycle->dense_factor_bytes(), cycle->memory_bytes());
      for (std::size_t l = 0; l < rows.size(); ++l) {
        std::printf("mg: level=%zu rows=%d nnz=%lld%s\n", l, rows[l],
                    static_cast<long long>(nnz[l]),
                    l == 0 ? " (fine)"
                           : (l + 1 == rows.size() ? " (dense-factored)" : ""));
      }
    }
  }

  if (krylov == "richardson") {
    // Stationary Schwarz iteration (paper Eq. 8) reusing the session's
    // preconditioner setup. Undamped Richardson diverges whenever the
    // spectrum of M⁻¹A exceeds 2 (additive Schwarz overlaps push it there),
    // so the default damping comes from a cheap power-iteration bound;
    // --omega overrides it (--omega 1 reproduces the plain Eq. 8 form).
    const char* omega_str = arg_str(argc, argv, "--omega", nullptr);
    if (omega_str != nullptr && !(omega_flag > 0.0)) {
      std::fprintf(stderr, "--omega must be > 0 (got %s); omit the flag for "
                   "the power-iteration default\n", omega_str);
      return 2;
    }
    const double omega =
        omega_str != nullptr
            ? omega_flag
            : solver::power_iteration_damping(prob.A,
                                              session.preconditioner(),
                                              /*iterations=*/12, seed);
    std::vector<double> x(prob.b.size(), 0.0);
    solver::SolveOptions opts;
    opts.rel_tol = cfg.rel_tol;
    opts.max_iterations = cfg.max_iterations;
    const PhaseSnapshot before = PhaseSnapshot::take();
    const auto res = solver::stationary_iteration(
        prob.A, session.preconditioner(), prob.b, x, opts, omega);
    std::printf("method=richardson+%s N=%d K=%d threads=%d omega=%.4f%s "
                "iters=%d rel_res=%.3e T=%.4f setup=%.4f converged=%d "
                "failure=%s\n",
                session.preconditioner().name().c_str(), problem_nodes,
                session.num_subdomains(), threads, omega,
                omega_str != nullptr ? "" : "(auto)", res.iterations,
                res.final_relative_residual, res.total_seconds,
                session.setup_seconds(), res.converged ? 1 : 0,
                obs::failure_reason_name(res.failure));
    if (verbose_timing) print_phase_summary(before, session.setup_seconds());
    write_obs_outputs(trace_path, metrics_path);
    if (!res.converged) {
      const bool blew_up =
          !res.history.empty() &&
          (res.final_relative_residual > 1.0 ||
           !std::isfinite(res.final_relative_residual));
      if (blew_up) {
        std::fprintf(stderr,
                     "richardson DIVERGED (rel_res=%.3e after %d iters, "
                     "omega=%.4f): the iteration matrix I - omega*M^-1*A is "
                     "not contractive. Retry with a smaller --omega or use "
                     "a Krylov method (--krylov pcg).\n",
                     res.final_relative_residual, res.iterations, omega);
      } else {
        std::fprintf(stderr,
                     "richardson did not reach tol=%.1e in %d iterations "
                     "(rel_res=%.3e, omega=%.4f): increase --max-iters or "
                     "--omega, or use --krylov pcg.\n",
                     cfg.rel_tol, res.iterations,
                     res.final_relative_residual, omega);
      }
    }
    return res.converged ? 0 : 1;
  }

  bool all_converged = true;
  std::vector<double> x(prob.b.size());
  for (int run = 0; run < std::max(1, repeat); ++run) {
    std::fill(x.begin(), x.end(), 0.0);
    const PhaseSnapshot before = PhaseSnapshot::take();
    const auto res = session.solve(prob.b, x);
    std::printf("method=%s precond=%s N=%d K=%d threads=%d iters=%d "
                "rel_res=%.3e T=%.4f T_precond=%.4f setup=%.4f converged=%d "
                "failure=%s\n",
                res.method.c_str(), precond.c_str(), problem_nodes,
                session.num_subdomains(), threads, res.iterations,
                res.final_relative_residual, res.total_seconds,
                res.precond_seconds, run == 0 ? session.setup_seconds() : 0.0,
                res.converged ? 1 : 0, obs::failure_reason_name(res.failure));
    if (verbose_timing) {
      print_phase_summary(before, run == 0 ? session.setup_seconds() : 0.0);
    }
    all_converged = all_converged && res.converged;
  }
  write_obs_outputs(trace_path, metrics_path);
  return all_converged ? 0 : 1;
}
