// Krylov solvers (paper §II) for the SPD systems this library serves:
// preconditioned CG exactly as Algorithm 1, plain CG (the same recurrence
// over the identity preconditioner) and flexible PCG (Polak–Ribière β —
// required when the preconditioner is not a fixed SPD operator, which is the
// case for DDM-GNN). Every driver takes `x` as its initial guess
// (r₀ = b − A·x) and overwrites it with the solution. All report
// per-iteration relative residual histories (Fig. 5b) and the accumulated
// preconditioner time (Table III's T_lu / T_gnn columns).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/csr.hpp"
#include "obs/forensics.hpp"
#include "precond/preconditioner.hpp"

namespace ddmgnn::solver {

using la::CsrMatrix;

/// The Krylov methods this module implements, as data: configs carry one of
/// these instead of call sites hard-coding which solver function to invoke.
enum class KrylovMethod {
  kCg,    // unpreconditioned conjugate gradient
  kPcg,   // Algorithm 1 (Fletcher–Reeves)
  kFpcg,  // flexible PCG (Polak–Ribière) — safe for nonlinear M⁻¹
};

/// Canonical lowercase name: "cg", "pcg", "fpcg".
/// SolveResult::method strings are prefixed with exactly these.
const char* krylov_method_name(KrylovMethod method);

/// Inverse of krylov_method_name; nullopt for unknown strings.
std::optional<KrylovMethod> krylov_method_from_name(std::string_view name);

struct SolveOptions {
  int max_iterations = 10000;
  /// Convergence: ||r_k|| <= rel_tol * ||b||.
  double rel_tol = 1e-6;
  bool track_history = true;
  /// Mixed-precision preconditioning: round the residual handed to M⁻¹ and
  /// the correction it returns through fp32 while every outer recurrence
  /// (x, r, dots, norms) stays fp64. Honored by every scalar and block
  /// driver (plain CG rounds around its identity apply too). The rounding
  /// makes M effectively nonlinear, so pair it with kFpcg (SolverSession's
  /// default-method selection does this); the block path's per-column
  /// true-residual verification guards it further.
  bool precond_fp32 = false;
};

struct SolveResult {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  /// history[k] = ||r_k|| / ||b|| (k = 0 is the initial residual).
  std::vector<double> history;
  double total_seconds = 0.0;
  /// Time spent inside Preconditioner::apply. Every driver (scalar, block,
  /// stationary) accumulates over the exact windows that also become
  /// "precond.apply" trace spans, so the coarse correction — which runs
  /// inside AdditiveSchwarz::apply — is included everywhere by construction.
  double precond_seconds = 0.0;
  /// Why the solve missed tolerance (kNone when converged). Assigned by
  /// classify_failure in every driver.
  obs::FailureReason failure = obs::FailureReason::kNone;
  std::string method;
};

/// Assign res.failure from the residual history: NaN/Inf residual → kNan;
/// final residual grew ≥10x past its start → kDiverged; <1% improvement over
/// the trailing 10 recorded iterations → kStagnated; otherwise kMaxIterations
/// (also the conservative answer when track_history was off). Pure function
/// of (res, opts); exposed so tests and post-hoc tooling can re-classify.
obs::FailureReason classify_failure(const SolveResult& res,
                                    const SolveOptions& opts);

/// Every driver's return path: fills res.failure (kNone when converged;
/// classify_failure otherwise, unless the driver already pinned a reason —
/// stationary_iteration detects divergence itself) and, when metrics are
/// enabled, records the per-solve counters/gauges/histograms
/// (solver.solves_total, solver.solve_seconds_total,
/// solver.precond_seconds_total, solver.iterations,
/// solver.failures_total{method=...,reason=...}).
void finalize_solve_telemetry(SolveResult& res, const SolveOptions& opts);

/// Unpreconditioned conjugate gradient: pcg's recurrence over the identity
/// preconditioner (z = r, so every α, β, residual and iterate is plain
/// CG's), labelled "cg". The identity copy counts as preconditioner time.
SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               std::span<double> x,
                               const SolveOptions& opts = {});

/// Preconditioned CG, Algorithm 1 of the paper (Fletcher–Reeves β).
SolveResult pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts = {});

/// Flexible PCG: β = <r_{k+1}, z_{k+1} - z_k> / <r_k, z_k>. Tolerates
/// non-symmetric / nonlinear preconditioners such as the GNN.
SolveResult flexible_pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                         std::span<const double> b, std::span<double> x,
                         const SolveOptions& opts = {});

/// Dispatch on `method` (kCg ignores `m`).
/// This is the single entry point SolverSession and the tools route through.
SolveResult run_krylov(KrylovMethod method, const CsrMatrix& a,
                       const precond::Preconditioner& m,
                       std::span<const double> b, std::span<double> x,
                       const SolveOptions& opts = {});

}  // namespace ddmgnn::solver
