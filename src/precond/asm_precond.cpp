#include "precond/asm_precond.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::precond {

using la::Index;

namespace {

// Apply-phase gauges, resolved once (function-local statics keep the
// registry lookup off the hot path; PhaseTimer reads the clock only while
// metrics or tracing are enabled).
obs::Gauge& restrict_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("asm.restrict_seconds");
  return g;
}
obs::Gauge& solve_gauge() {
  static obs::Gauge& g =
      obs::Registry::instance().gauge("asm.subdomain_solve_seconds");
  return g;
}
obs::Gauge& prolong_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("asm.prolong_seconds");
  return g;
}
obs::Gauge& coarse_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("asm.coarse_seconds");
  return g;
}

}  // namespace

void SubdomainSolver::solve_all_block(
    const std::vector<la::MultiVector>& r_loc,
    std::vector<la::MultiVector>& z_loc, Workspace* ws) const {
  const std::size_t k = r_loc.size();
  DDMGNN_CHECK(z_loc.size() == k, "solve_all_block: batch size");
  const Index s = k == 0 ? 0 : r_loc[0].cols();
  std::vector<std::vector<double>> r_col(k), z_col(k);
  for (std::size_t i = 0; i < k; ++i) {
    r_col[i].resize(r_loc[i].rows());
    z_col[i].resize(r_loc[i].rows());
  }
  for (Index j = 0; j < s; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      la::copy(r_loc[i].col(j), r_col[i]);
    }
    solve_all(r_col, z_col, ws);
    for (std::size_t i = 0; i < k; ++i) {
      la::copy(z_col[i], z_loc[i].col(j));
    }
  }
}

void CholeskySubdomainSolver::setup(std::vector<la::CsrMatrix> local_matrices,
                                    const partition::Decomposition& dec) {
  (void)dec;
  factors_.resize(local_matrices.size());
  parallel_for_dynamic(static_cast<long>(local_matrices.size()), [&](long i) {
    factors_[i] =
        std::make_unique<la::SkylineCholesky>(local_matrices[i], true);
  });
}

namespace {

/// Per-caller scratch of CholeskySubdomainSolver: one sweep buffer per
/// OpenMP lane of the caller's solve.
struct CholeskyWorkspace final : SubdomainSolver::Workspace {
  std::vector<la::SkylineCholesky::Scratch> lanes;
};

/// The caller's lanes, at least `team` of them.
std::vector<la::SkylineCholesky::Scratch>& cholesky_lanes(
    SubdomainSolver::Workspace* ws, int team) {
  auto* cws = dynamic_cast<CholeskyWorkspace*>(ws);
  DDMGNN_CHECK(cws != nullptr,
               "CholeskySubdomainSolver: solve needs a workspace from this "
               "solver's make_workspace()");
  if (static_cast<int>(cws->lanes.size()) < team) cws->lanes.resize(team);
  return cws->lanes;
}

}  // namespace

std::unique_ptr<SubdomainSolver::Workspace>
CholeskySubdomainSolver::make_workspace() const {
  auto ws = std::make_unique<CholeskyWorkspace>();
  ws->lanes.resize(static_cast<std::size_t>(std::max(1, num_threads())));
  return ws;
}

std::size_t CholeskySubdomainSolver::workspace_bytes() const {
  Index max_n = 0;
  for (const auto& f : factors_) max_n = std::max(max_n, f->size());
  return static_cast<std::size_t>(max_n) * sizeof(double) *
         static_cast<std::size_t>(std::max(1, num_threads()));
}

void CholeskySubdomainSolver::solve_all(
    const std::vector<std::vector<double>>& r_loc,
    std::vector<std::vector<double>>& z_loc, Workspace* ws) const {
  DDMGNN_CHECK(r_loc.size() == factors_.size(), "solve_all: batch size");
  // Read the thread count once, so the team never outgrows the lanes.
  const int team = std::max(1, num_threads());
  auto& lanes = cholesky_lanes(ws, team);
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
  for (long i = 0; i < static_cast<long>(r_loc.size()); ++i) {
    z_loc[i].assign(r_loc[i].begin(), r_loc[i].end());
    factors_[i]->solve_inplace(z_loc[i], lanes[omp_get_thread_num()]);
  }
}

void CholeskySubdomainSolver::solve_all_block(
    const std::vector<la::MultiVector>& r_loc,
    std::vector<la::MultiVector>& z_loc, Workspace* ws) const {
  DDMGNN_CHECK(r_loc.size() == factors_.size(), "solve_all_block: batch size");
  const int team = std::max(1, num_threads());
  auto& lanes = cholesky_lanes(ws, team);
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
  for (long i = 0; i < static_cast<long>(r_loc.size()); ++i) {
    const la::MultiVector& r = r_loc[i];
    la::MultiVector& z = z_loc[i];
    la::SkylineCholesky::Scratch& scratch = lanes[omp_get_thread_num()];
    for (Index j = 0; j < r.cols(); ++j) {
      la::copy(r.col(j), z.col(j));
      factors_[i]->solve_inplace(z.col(j), scratch);
    }
  }
}

struct AdditiveSchwarz::Scratch final : ApplyWorkspace {
  // Reused per-apply buffers.
  std::vector<std::vector<double>> r_loc;
  std::vector<std::vector<double>> z_loc;
  // Block-path scratch (resized to the current column count s).
  std::vector<la::MultiVector> r_blk;
  std::vector<la::MultiVector> z_blk;
  std::unique_ptr<SubdomainSolver::Workspace> local;
};

AdditiveSchwarz::AdditiveSchwarz(
    const la::CsrMatrix& a, const partition::Decomposition& dec,
    std::unique_ptr<SubdomainSolver> local_solver,
    std::unique_ptr<partition::CoarseComponent> coarse)
    : dec_(&dec), solver_(std::move(local_solver)), coarse_(std::move(coarse)) {
  DDMGNN_CHECK(a.rows() == dec.num_nodes(), "ASM: size mismatch");
  DDMGNN_CHECK(solver_ != nullptr, "ASM: null subdomain solver");
  const Index k = dec.num_parts;
  std::vector<la::CsrMatrix> blocks(k);
  {
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.extract_blocks_seconds");
    obs::PhaseTimer t("setup.extract_blocks", &g);
    parallel_for_dynamic(k, [&](long i) {
      blocks[i] = a.principal_submatrix(dec.subdomains[i]);
    });
  }
  {
    // For DDM-LU this is the factorization; for DDM-GNN it builds the
    // subdomain topologies + DSS edge caches (which add their own child
    // phase under setup.dss_edge_cache_seconds).
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.local_solver_seconds");
    obs::PhaseTimer t("setup.local_solver", &g);
    solver_->setup(std::move(blocks), dec);
  }
}

std::unique_ptr<ApplyWorkspace> AdditiveSchwarz::make_workspace() const {
  auto ws = std::make_unique<Scratch>();
  const Index k = dec_->num_parts;
  ws->r_loc.resize(k);
  ws->z_loc.resize(k);
  for (Index i = 0; i < k; ++i) {
    ws->r_loc[i].resize(dec_->subdomains[i].size());
    ws->z_loc[i].resize(dec_->subdomains[i].size());
  }
  ws->local = solver_->make_workspace();
  return ws;
}

std::size_t AdditiveSchwarz::workspace_bytes() const {
  std::size_t local_nodes = 0;
  for (const auto& nodes : dec_->subdomains) local_nodes += nodes.size();
  // r_loc + z_loc doubles (the block path adds s columns of the same — the
  // estimate stays at the single-RHS footprint) plus the local solver's own
  // scratch.
  return 2 * local_nodes * sizeof(double) + solver_->workspace_bytes();
}

AdditiveSchwarz::Scratch& AdditiveSchwarz::scratch_of(
    ApplyWorkspace* ws) const {
  auto* scratch = dynamic_cast<Scratch*>(ws);
  DDMGNN_CHECK(scratch != nullptr,
               "ASM::apply needs a workspace from this preconditioner's "
               "make_workspace() (or use the 2-argument convenience apply)");
  return *scratch;
}

void AdditiveSchwarz::apply(std::span<const double> r,
                            std::span<double> z, ApplyWorkspace* ws) const {
  const Index n = dec_->num_nodes();
  DDMGNN_CHECK(r.size() == static_cast<std::size_t>(n) && z.size() == r.size(),
               "ASM::apply dims");
  Scratch& scratch = scratch_of(ws);
  const Index k = dec_->num_parts;
  OBS_SPAN("asm.apply");
  {
    obs::PhaseTimer t("asm.restrict", &restrict_gauge());
    for (Index i = 0; i < k; ++i) {
      dec_->restrict_to(i, r, scratch.r_loc[i]);
    }
  }
  {
    obs::PhaseTimer t("asm.subdomain_solve", &solve_gauge());
    solver_->solve_all(scratch.r_loc, scratch.z_loc, scratch.local.get());
  }
  {
    obs::PhaseTimer t("asm.prolong", &prolong_gauge());
    std::fill(z.begin(), z.end(), 0.0);
    for (Index i = 0; i < k; ++i) {
      dec_->prolong_add(i, scratch.z_loc[i], z);
    }
  }
  if (coarse_) {
    obs::PhaseTimer t("asm.coarse", &coarse_gauge());
    coarse_->apply_add(r, z);
  }
}

void AdditiveSchwarz::apply_many(const la::MultiVector& r,
                                 la::MultiVector& z, ApplyWorkspace* ws) const {
  const Index n = dec_->num_nodes();
  const Index s = r.cols();
  DDMGNN_CHECK(r.rows() == n && z.rows() == n && z.cols() == s,
               "ASM::apply_many dims");
  Scratch& scratch = scratch_of(ws);
  const Index k = dec_->num_parts;
  OBS_SPAN("asm.apply_many");
  {
    obs::PhaseTimer t("asm.restrict", &restrict_gauge());
    if (scratch.r_blk.empty()) {
      scratch.r_blk.resize(k);
      scratch.z_blk.resize(k);
    }
    for (Index i = 0; i < k; ++i) {
      const auto ni = static_cast<Index>(dec_->subdomains[i].size());
      if (scratch.r_blk[i].rows() != ni || scratch.r_blk[i].cols() != s) {
        scratch.r_blk[i].resize(ni, s);
        scratch.z_blk[i].resize(ni, s);
      }
      dec_->restrict_to_many(i, r, scratch.r_blk[i]);
    }
  }
  {
    obs::PhaseTimer t("asm.subdomain_solve", &solve_gauge());
    solver_->solve_all_block(scratch.r_blk, scratch.z_blk,
                             scratch.local.get());
  }
  {
    obs::PhaseTimer t("asm.prolong", &prolong_gauge());
    z.fill(0.0);
    for (Index i = 0; i < k; ++i) {
      dec_->prolong_add_many(i, scratch.z_blk[i], z);
    }
  }
  if (coarse_) {
    obs::PhaseTimer t("asm.coarse", &coarse_gauge());
    coarse_->apply_add_many(r, z);
  }
}

std::string AdditiveSchwarz::name() const {
  return std::string("ddm-") + solver_->name();
}

}  // namespace ddmgnn::precond
