#include "core/solver_session.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "gnn/graph.hpp"
#include "gnn/spectral_coords.hpp"
#include "la/multivector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"
#include "precond/registry.hpp"
#include "solver/block_krylov.hpp"

namespace ddmgnn::core {

namespace {

/// A tolerance or iteration budget no solve can meet fails setup up front
/// instead of burning the budget (or running no iteration) on every solve.
void check_solve_budget(const HybridConfig& cfg) {
  std::ostringstream tol;
  tol << cfg.rel_tol;
  DDMGNN_CHECK(std::isfinite(cfg.rel_tol) && cfg.rel_tol > 0.0,
               "setup: rel_tol must be finite and > 0, got " + tol.str());
  DDMGNN_CHECK(cfg.max_iterations >= 1,
               "setup: max_iterations must be >= 1, got " +
                   std::to_string(cfg.max_iterations));
}

}  // namespace

void SolverSession::reset_setup_state() {
  // Reset first so ANY setup failure — including an unknown name — leaves
  // the session not-ready rather than keyed to a stale problem.
  m_inv_.reset();
  dec_.reset();
  a_ = nullptr;
  num_subdomains_ = 0;
  setup_seconds_ = 0.0;
}

void SolverSession::check_setup_allowed() const {
  DDMGNN_CHECK(!setup_locked_,
               "SolverSession::setup on a cache-owned session: this session "
               "is shared through a core::SessionCache and re-keying it "
               "would corrupt the cache's fingerprint index for every other "
               "holder. Re-key through the cache instead: call "
               "SessionCache::get_or_setup with the new operator/config "
               "(misses prepare a fresh entry; the old one stays valid).");
}

void SolverSession::setup_from_graph(const la::CsrMatrix& A,
                                     const HybridConfig& cfg,
                                     std::span<const la::Offset> adj_ptr,
                                     std::span<const la::Index> adj,
                                     const AlgebraicOptions& opts) {
  check_setup_allowed();
  reset_setup_state();
  check_solve_budget(cfg);
  cfg_ = cfg;
  DDMGNN_CHECK(adj_ptr.size() == static_cast<std::size_t>(A.rows()) + 1,
               "setup_from_graph: adjacency does not match the operator");

  // Resolves aliases and throws (listing the table's names) on unknowns.
  const std::string_view canonical =
      precond::canonical_preconditioner_name(cfg.preconditioner);
  const precond::PrecondTraits traits = precond::preconditioner_traits(canonical);

  static obs::Gauge& setup_gauge =
      obs::Registry::instance().gauge("session.setup_seconds");
  obs::PhaseTimer setup_phase("session.setup", &setup_gauge);
  Timer setup_timer;
  if (traits.needs_decomposition) {
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.decomposition_seconds");
    obs::PhaseTimer t("setup.decomposition", &g);
    dec_ = std::make_unique<partition::Decomposition>(
        partition::decompose_target_size(adj_ptr, adj,
                                         cfg.subdomain_target_nodes,
                                         cfg.overlap, cfg.seed));
    num_subdomains_ = dec_->num_parts;
  }
  precond::PrecondContext ctx;
  ctx.A = &A;
  ctx.dec = dec_.get();
  ctx.dirichlet = opts.dirichlet;
  ctx.coords = opts.coordinates;
  ctx.model = cfg.model;
  ctx.gnn_refinement_steps = cfg.gnn_refinement_steps;
  ctx.gnn_normalize = cfg.gnn_normalize;
  ctx.gnn_adaptive_refinement = cfg.gnn_adaptive_refinement;
  ctx.gnn_fp32_fallback = cfg.precond_fp32;
  ctx.mg_levels = cfg.mg_levels;
  ctx.seed = cfg.seed;
  // The message-graph pattern is only materialized for geometry consumers
  // (the GNN entries); the factories copy it, so it can live on this stack.
  la::CsrMatrix pattern;
  if (traits.needs_geometry) {
    pattern = gnn::adjacency_pattern(adj_ptr, adj);
    ctx.edge_pattern = &pattern;
  }
  {
    // Child phases (setup.extract_blocks / setup.local_solver /
    // setup.coarse_space) are emitted inside AdditiveSchwarz's constructor.
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.preconditioner_seconds");
    obs::PhaseTimer t("setup.preconditioner", &g);
    m_inv_ = precond::make_preconditioner(canonical, ctx);
  }
  a_ = &A;
  setup_seconds_ += setup_timer.seconds();

  if (cfg.method.has_value()) {
    method_ = *cfg.method;
  } else if (canonical == "none") {
    method_ = solver::KrylovMethod::kCg;
  } else {
    // fp32 rounding makes even a symmetric M effectively nonlinear, so the
    // default selection needs the flexible variant too.
    const bool flexible = !m_inv_->is_symmetric() || cfg.precond_fp32;
    method_ = flexible ? solver::KrylovMethod::kFpcg
                       : solver::KrylovMethod::kPcg;
  }
}

void SolverSession::setup(const mesh::Mesh& m, const fem::PoissonProblem& prob,
                          const HybridConfig& cfg) {
  AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  setup_from_graph(prob.A, cfg, m.adj_ptr(), m.adj(), opts);
}

void SolverSession::setup(const la::CsrMatrix& A, const HybridConfig& cfg,
                          const AlgebraicOptions& opts) {
  check_setup_allowed();
  reset_setup_state();
  DDMGNN_CHECK(A.rows() == A.cols(),
               "setup(A): operator must be square, got " +
                   std::to_string(A.rows()) + "x" + std::to_string(A.cols()));
  check_solve_budget(cfg);
  const precond::PrecondTraits traits =
      precond::preconditioner_traits(cfg.preconditioner);
  const auto n = static_cast<std::size_t>(A.rows());
  DDMGNN_CHECK(opts.dirichlet.empty() || opts.dirichlet.size() == n,
               "setup(A): dirichlet mask must have one entry per row");
  DDMGNN_CHECK(opts.coordinates.empty() || opts.coordinates.size() == n,
               "setup(A): coordinates must have one point per row");

  // Graph derivation is part of the setup cost the session reports — and is
  // skipped entirely for preconditioners that consult neither the
  // decomposition nor geometry (none/jacobi/ic0), where it could dwarf the
  // actual build.
  Timer derive_timer;
  partition::AdjacencyGraph graph;
  if (traits.needs_decomposition || traits.needs_geometry) {
    graph = partition::matrix_adjacency(A);
  } else {
    graph.ptr.assign(static_cast<std::size_t>(A.rows()) + 1, 0);  // edgeless
  }
  std::span<const mesh::Point2> coords = opts.coordinates;
  std::vector<mesh::Point2> synthetic;
  if (traits.needs_geometry && coords.empty()) {
    synthetic = gnn::spectral_coordinates(graph.ptr, graph.idx,
                                          /*smoothing_steps=*/30, cfg.seed);
    coords = synthetic;
  }
  const double derive_seconds = derive_timer.seconds();
  AlgebraicOptions derived;
  derived.dirichlet = opts.dirichlet;
  derived.coordinates = coords;
  setup_from_graph(A, cfg, graph.ptr, graph.idx, derived);
  setup_seconds_ += derive_seconds;
}

solver::SolveOptions SolverSession::solve_options() const {
  solver::SolveOptions opts;
  opts.rel_tol = cfg_.rel_tol;
  opts.max_iterations = cfg_.max_iterations;
  opts.track_history = cfg_.track_history;
  opts.precond_fp32 = cfg_.precond_fp32;
  return opts;
}

solver::SolveResult SolverSession::solve(std::span<const double> b,
                                         std::span<double> x) const {
  DDMGNN_CHECK(ready(), "SolverSession::solve before setup()");
  // Root span: every solve's full wall time is covered by this one event,
  // with the Krylov iterations and preconditioner phases nested inside.
  obs::Span solve_span("session.solve");
  solver::SolveResult res =
      solver::run_krylov(method_, *a_, *m_inv_, b, x, solve_options());
  solve_span.arg("iterations", res.iterations);
  solve_span.arg("converged", res.converged ? 1.0 : 0.0);
  return res;
}

std::vector<solver::SolveResult> SolverSession::solve_many(
    std::span<const std::vector<double>> rhs,
    std::vector<std::vector<double>>& xs) const {
  DDMGNN_CHECK(ready(), "SolverSession::solve_many before setup()");
  obs::Span solve_span("session.solve_many");
  solve_span.arg("rhs", static_cast<double>(rhs.size()));
  xs.resize(rhs.size());
  if (rhs.empty()) return {};
  if (rhs.size() == 1) {
    xs[0].assign(rhs[0].size(), 0.0);
    return {solve(rhs[0], xs[0])};
  }
  const auto n = static_cast<std::size_t>(a_->rows());
  for (const auto& b : rhs) {
    DDMGNN_CHECK(b.size() == n, "solve_many: rhs size mismatch");
  }
  const la::MultiVector b = la::MultiVector::from_columns(rhs);
  la::MultiVector x(b.rows(), b.cols(), 0.0);
  std::vector<solver::SolveResult> results =
      solver::run_block_krylov(method_, *a_, *m_inv_, b, x, solve_options());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    const auto col = x.col(static_cast<la::Index>(i));
    xs[i].assign(col.begin(), col.end());
  }
  return results;
}

std::size_t SolverSession::memory_bytes() const {
  if (!ready()) return 0;
  // Operator CSR views (shared with the caller, but the cache's copy owns
  // them) ...
  std::size_t bytes =
      static_cast<std::size_t>(a_->rows() + 1) * sizeof(la::Offset) +
      static_cast<std::size_t>(a_->nnz()) *
          (sizeof(la::Index) + sizeof(double));
  // ... plus decomposition node lists and a dense-factor-style bound on the
  // per-subdomain solver state (Cholesky envelopes / DSS topologies).
  if (dec_) {
    bytes += static_cast<std::size_t>(dec_->num_nodes()) *
             (sizeof(la::Index) + sizeof(double));
    for (const auto& nodes : dec_->subdomains) {
      bytes += nodes.size() * sizeof(la::Index);
      bytes += nodes.size() * nodes.size() * sizeof(double);
    }
  }
  // One concurrent solve's worth of apply-workspace scratch. Per-call
  // workspaces replaced the old `static thread_local` DSS buffers, which
  // this estimate used to omit entirely; counting one solve keeps the
  // SessionCache byte budget honest for the common one-client-per-session
  // case (heavier fan-in scales the transient scratch, not the cached state).
  if (m_inv_) bytes += m_inv_->workspace_bytes();
  // The GNN local solver additionally holds the model's packed weights (the
  // fused inference engine's one setup-time copy, shared by every lane).
  if (const auto* schwarz =
          dynamic_cast<const precond::AdditiveSchwarz*>(m_inv_.get())) {
    // Coarse-correction state: the dense Nicolaides factor, or the whole
    // smoothed-aggregation hierarchy (level operators + transfers + the far
    // smaller coarsest factor) at mg_levels >= 2.
    if (const auto* coarse = schwarz->coarse_component()) {
      bytes += coarse->memory_bytes();
    }
    if (const auto* gnn_local = dynamic_cast<const GnnSubdomainSolver*>(
            &schwarz->local_solver())) {
      bytes += gnn_local->packed_weights().bytes();
    }
  }
  return bytes;
}

const precond::Preconditioner& SolverSession::preconditioner() const {
  DDMGNN_CHECK(ready(), "SolverSession::preconditioner before setup()");
  return *m_inv_;
}

}  // namespace ddmgnn::core
