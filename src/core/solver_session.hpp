// Setup/solve session API — the reusable form of the hybrid solver.
//
// The paper's headline economics are that DDM-GNN setup (partitioning,
// subdomain graph construction, local factorizations, coarse-space assembly)
// is amortized across solves: production callers (time-stepping, pressure
// projection) solve the same operator against many right-hand sides. A
// SolverSession builds all of that state exactly once in setup() and then
// serves any number of solve()/solve_many() calls that pay only iteration
// cost:
//
//   core::SolverSession session;
//   session.setup(mesh, prob, cfg);            // partition + factor + graphs
//   session.solve(prob.b, x);                  // Krylov iterations only
//   session.solve(next_rhs, x);                // reuses ALL setup state
//
// Non-FEM callers skip the mesh entirely — the DDM-GNN preconditioner
// operates on the assembled operator, so any sparse SPD system can be set up
// matrix-first:
//
//   session.setup(A, cfg);                     // decomposition from the
//                                              // matrix graph; GNN features
//                                              // from synthetic coordinates
//   session.setup(A, cfg, {dirichlet, coords});// with known extra structure
//
// The preconditioner is chosen by name from the fixed preconditioner table
// (src/precond/registry.hpp) and the Krylov method by the KrylovMethod
// selector, so both are configuration data rather than call-site code.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "mesh/mesh.hpp"
#include "partition/decomposition.hpp"
#include "precond/preconditioner.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::core {

/// Configuration of one session: preconditioner by table name, Krylov
/// method by selector, plus decomposition, GNN and coarse-correction knobs.
struct HybridConfig {
  /// Table name: "none", "jacobi", "ic0", "ddm-lu", "ddm-gnn" (see
  /// precond::preconditioner_names()). The coarse correction of the two
  /// Schwarz entries is picked by mg_levels, not by the name.
  std::string preconditioner = "ddm-gnn";
  /// Krylov method. When unset, picked from the preconditioner's traits:
  /// "none" runs plain CG, symmetric preconditioners run PCG (Algorithm 1),
  /// non-symmetric ones (the GNN variants) run flexible PCG.
  std::optional<solver::KrylovMethod> method;
  la::Index subdomain_target_nodes = 1000;  // paper's Ns
  int overlap = 2;
  /// Stopping rule of every solve. Setup throws ContractError unless
  /// rel_tol is finite and > 0 and max_iterations >= 1.
  double rel_tol = 1e-6;
  int max_iterations = 2000;
  /// Required for the GNN preconditioners.
  const gnn::DssModel* model = nullptr;
  /// Extra DSS refinement passes per local solve (see GnnSubdomainSolver).
  int gnn_refinement_steps = 0;
  /// §III-A residual normalization (ablation switch).
  bool gnn_normalize = true;
  /// Refine-until-contractive setup (GnnSubdomainSolver::Options): probe
  /// each subdomain at setup, pick the pass count that actually contracts
  /// the local residual, and fall back to an exact Cholesky local solve for
  /// subdomains the model cannot contract. This is the served-configuration
  /// convergence fix — off by default so existing configs are bit-for-bit
  /// unchanged; gnn_refinement_steps acts as the per-subdomain floor. The
  /// contraction target, refinement cap and cost-aware fallback are fixed
  /// (GnnSubdomainSolver::Options::adaptive_refinement).
  bool gnn_adaptive_refinement = false;
  /// Run preconditioner applications through fp32 (round the residual in,
  /// the correction out; Cholesky fallbacks sweep an fp32 factor copy). The
  /// outer Krylov recurrences stay fp64. Makes the preconditioner
  /// effectively nonlinear, so the default-method selection bumps PCG to
  /// flexible PCG when enabled.
  bool precond_fp32 = false;
  /// Coarse correction of the Schwarz entries (ddm-lu, ddm-gnn): depth L.
  /// 0 drops it (one-level, Eq. 6); the default 1 is the one-shot dense
  /// Nicolaides solve (two-level, Eq. 7); L >= 2 builds a smoothed-
  /// aggregation hierarchy (aggregation coarsening + Galerkin operators)
  /// and applies it as a V-cycle with one damped-Jacobi sweep before and
  /// after each intermediate-level correction: an (L+1)-level method
  /// counting the fine grid. Negative depths make setup throw ContractError.
  int mg_levels = 1;
  std::uint64_t seed = 0;
  bool track_history = true;

  /// Field-by-field equality: what SessionCache verifies a fingerprint
  /// match with.
  bool operator==(const HybridConfig&) const = default;
};

/// Optional extra structure for the matrix-first setup path. Everything is
/// copied where needed during setup — the spans need only live through the
/// setup() call.
struct AlgebraicOptions {
  /// Dirichlet mask (1 for identity/constrained rows), size = A.rows().
  /// Empty means no constrained rows.
  std::span<const std::uint8_t> dirichlet;
  /// Node positions for the GNN graph features, size = A.rows(). Empty lets
  /// the session synthesize spectral coordinates from the matrix graph
  /// (gnn::spectral_coordinates) for preconditioners that need geometry.
  std::span<const mesh::Point2> coordinates;
};

/// A prepared solver for one operator. setup() may be called again to re-key
/// the session to a new problem; solve() requires a prior setup().
///
/// Lifetimes: the session keeps references to the operator (`prob.A` or the
/// bare `A`) and, for the GNN preconditioners, to `cfg.model` — both must
/// outlive the session's solves. Mesh geometry, synthetic coordinates and
/// Dirichlet flags are copied where needed during setup.
class SolverSession {
 public:
  SolverSession() = default;
  // Movable, not copyable: the preconditioner points into session-owned
  // decomposition state (held behind stable unique_ptrs).
  SolverSession(SolverSession&&) = default;
  SolverSession& operator=(SolverSession&&) = default;
  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  /// Build decomposition, local factorizations/DSS graphs and coarse space
  /// for `prob.A` once. Throws ContractError for unknown preconditioner
  /// names or missing requirements (e.g. a GNN preconditioner without a
  /// model).
  void setup(const mesh::Mesh& m, const fem::PoissonProblem& prob,
             const HybridConfig& cfg);

  /// Matrix-first (algebraic) setup: build the same prepared state from a
  /// bare assembled operator. The domain decomposition comes from the
  /// symmetrized stored pattern of `A` (partition::matrix_adjacency) and,
  /// for the GNN preconditioners, graph features come from
  /// `opts.coordinates` or — when empty — synthetic spectral coordinates of
  /// that same graph. Throws ContractError for unknown names, for non-square
  /// `A`, and for mis-sized `opts` spans. `A` must outlive the session's
  /// solves.
  void setup(const la::CsrMatrix& A, const HybridConfig& cfg,
             const AlgebraicOptions& opts = {});

  /// Graph-parameterized form both public paths delegate to: prepare for `A`
  /// using an explicit decomposition/message graph (mesh::Mesh CSR adjacency
  /// layout). This is the seam for callers that know a better graph than the
  /// matrix pattern (the mesh path passes the mesh adjacency; core's
  /// SessionCache re-keys mesh setups onto its owned operator copies through
  /// it). Spans are not retained beyond the call.
  void setup_from_graph(const la::CsrMatrix& A, const HybridConfig& cfg,
                        std::span<const la::Offset> adj_ptr,
                        std::span<const la::Index> adj,
                        const AlgebraicOptions& opts = {});

  /// Solve A x = b with the prepared preconditioner. `x` is the initial
  /// guess on entry and the solution on exit: every driver forms
  /// r₀ = b − A·x, so a zeroed `x` is a cold start and the previous step's
  /// solution is the warm start a time-stepping caller wants (a solve
  /// started from an already-converged solution finishes immediately).
  /// Only iteration cost — no setup work happens here.
  solver::SolveResult solve(std::span<const double> b,
                            std::span<double> x) const;

  /// Solve the same operator against each right-hand side in `rhs`;
  /// `xs` is resized to match, every solve starting from a zero guess.
  ///
  /// With two or more right-hand sides, all of them advance together
  /// through the block-Krylov engine (every method has a block form): every
  /// iteration pays ONE SpMM and ONE block preconditioner application (all
  /// K·s local solves in one parallel region) instead of one per RHS, and
  /// finished columns are deflated out. A single RHS runs solve().
  std::vector<solver::SolveResult> solve_many(
      std::span<const std::vector<double>> rhs,
      std::vector<std::vector<double>>& xs) const;

  bool ready() const { return m_inv_ != nullptr; }
  /// Operator size n (rows == cols); 0 before setup(). What admission layers
  /// validate incoming right-hand sides against.
  la::Index rows() const { return a_ != nullptr ? a_->rows() : 0; }
  /// Wall-clock seconds the last setup() took (partition + factorizations +
  /// graphs + coarse space). Not touched by solve().
  double setup_seconds() const { return setup_seconds_; }
  /// K — 0 when the preconditioner involves no decomposition.
  la::Index num_subdomains() const { return num_subdomains_; }
  /// Resolved Krylov method (after trait-based defaulting).
  solver::KrylovMethod method() const { return method_; }
  /// Switch the Krylov method for subsequent solves — no re-setup needed;
  /// the preconditioner state is method-agnostic.
  void set_method(solver::KrylovMethod method) { method_ = method; }
  const precond::Preconditioner& preconditioner() const;
  const HybridConfig& config() const { return cfg_; }
  /// Rough bytes held by the prepared state: the operator's CSR views, the
  /// decomposition node lists, a dense-factor-style bound on the local
  /// solver storage (Σ |Ω_i|² doubles when a decomposition exists — an upper
  /// estimate for the GNN variants), plus one concurrent solve's worth of
  /// preconditioner apply-workspace scratch (the per-solve buffers the old
  /// `static thread_local` workspaces used to hide). Used by
  /// core::SessionCache's byte budget; 0 before setup().
  std::size_t memory_bytes() const;

  /// Forbid any further setup() on this session: all three setup entry
  /// points then throw ContractError. The SessionCache locks every session
  /// it hands out — re-keying a shared session would corrupt the cache's
  /// fingerprint index out from under concurrent holders; re-key through
  /// SessionCache::get_or_setup with the new operator/config instead.
  void lock_setup() { setup_locked_ = true; }
  bool setup_locked() const { return setup_locked_; }

 private:
  void reset_setup_state();
  void check_setup_allowed() const;
  solver::SolveOptions solve_options() const;

  bool setup_locked_ = false;
  HybridConfig cfg_;
  solver::KrylovMethod method_ = solver::KrylovMethod::kPcg;
  const la::CsrMatrix* a_ = nullptr;
  // unique_ptr for address stability: the Schwarz preconditioner keeps a
  // pointer to the decomposition, and the session stays movable.
  std::unique_ptr<partition::Decomposition> dec_;
  std::unique_ptr<precond::Preconditioner> m_inv_;
  double setup_seconds_ = 0.0;
  la::Index num_subdomains_ = 0;
};

}  // namespace ddmgnn::core
