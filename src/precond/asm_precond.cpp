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

/// One lane of CholeskySubdomainSolver: its sweep buffer.
struct CholeskyWorkspace final : SubdomainSolver::Workspace {
  la::SkylineCholesky::Scratch sweep;
};

}  // namespace

std::unique_ptr<SubdomainSolver::Workspace>
CholeskySubdomainSolver::make_workspace() const {
  return std::make_unique<CholeskyWorkspace>();
}

std::size_t CholeskySubdomainSolver::workspace_bytes() const {
  Index max_n = 0;
  for (const auto& f : factors_) max_n = std::max(max_n, f->size());
  return static_cast<std::size_t>(max_n) * sizeof(double);
}

void CholeskySubdomainSolver::solve(Index i, std::span<const double> r,
                                    std::span<double> z, Workspace* ws) const {
  auto* cws = dynamic_cast<CholeskyWorkspace*>(ws);
  DDMGNN_CHECK(cws != nullptr,
               "CholeskySubdomainSolver: solve needs a workspace from this "
               "solver's make_workspace()");
  std::copy(r.begin(), r.end(), z.begin());
  factors_[i]->solve_inplace(z, cws->sweep);
}

struct AdditiveSchwarz::Scratch final : ApplyWorkspace {
  // Local restrictions / corrections: subdomain i's columns back to back.
  // Grown to the widest block applied so far.
  std::vector<std::vector<double>> r_loc;
  std::vector<std::vector<double>> z_loc;
  // One subdomain-solver workspace per OpenMP lane, grown to the team size.
  std::vector<std::unique_ptr<SubdomainSolver::Workspace>> lanes;
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
    // For DDM-LU this is the factorization; for DDM-GNN it packs the
    // model's weights and builds the subdomain message graphs (and, with
    // adaptive refinement, probes each subdomain with DSS inferences).
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.local_solver_seconds");
    obs::PhaseTimer t("setup.local_solver", &g);
    solver_->setup(std::move(blocks), dec);
  }
}

std::unique_ptr<ApplyWorkspace> AdditiveSchwarz::make_workspace() const {
  auto ws = std::make_unique<Scratch>();
  ws->r_loc.resize(dec_->num_parts);
  ws->z_loc.resize(dec_->num_parts);
  return ws;
}

std::size_t AdditiveSchwarz::workspace_bytes() const {
  std::size_t local_nodes = 0;
  for (const auto& nodes : dec_->subdomains) local_nodes += nodes.size();
  // r_loc + z_loc doubles (a block apply adds s columns of the same — the
  // estimate stays at the single-RHS footprint) plus one local-solver
  // workspace per lane.
  return 2 * local_nodes * sizeof(double) +
         static_cast<std::size_t>(std::max(1, num_threads())) *
             solver_->workspace_bytes();
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
  OBS_SPAN("asm.apply");
  apply_columns(r, z, 1, scratch_of(ws));
}

void AdditiveSchwarz::apply_many(const la::MultiVector& r,
                                 la::MultiVector& z, ApplyWorkspace* ws) const {
  const Index n = dec_->num_nodes();
  DDMGNN_CHECK(r.rows() == n && z.rows() == n && z.cols() == r.cols(),
               "ASM::apply_many dims");
  OBS_SPAN("asm.apply_many");
  apply_columns(r.data(), z.data(), r.cols(), scratch_of(ws));
}

void AdditiveSchwarz::apply_columns(std::span<const double> r,
                                    std::span<double> z, Index s,
                                    Scratch& scratch) const {
  const auto n = static_cast<std::size_t>(dec_->num_nodes());
  const Index k = dec_->num_parts;
  auto column = [n](auto v, Index j) {
    return v.subspan(static_cast<std::size_t>(j) * n, n);
  };
  // Task t = i·s + j: column j of subdomain i, at offset j·|Ω_i| of the
  // subdomain's local buffers.
  auto local = [&](std::vector<double>& buf, long t) {
    const std::size_t ni = dec_->subdomains[t / s].size();
    return std::span<double>(buf).subspan(
        static_cast<std::size_t>(t % s) * ni, ni);
  };
  {
    obs::PhaseTimer t("asm.restrict", &restrict_gauge());
    for (Index i = 0; i < k; ++i) {
      const std::size_t len = dec_->subdomains[i].size() * s;
      if (scratch.r_loc[i].size() < len) {
        scratch.r_loc[i].resize(len);
        scratch.z_loc[i].resize(len);
      }
      for (Index j = 0; j < s; ++j) {
        dec_->restrict_to(i, column(r, j), local(scratch.r_loc[i], i * s + j));
      }
    }
  }
  {
    obs::PhaseTimer t("asm.subdomain_solve", &solve_gauge());
    // Read the thread count once: a concurrent set_num_threads() between
    // sizing the lanes and forking the team must not leave the team wider
    // than the lane array.
    const int team = std::max(1, num_threads());
    while (static_cast<int>(scratch.lanes.size()) < team) {
      scratch.lanes.push_back(solver_->make_workspace());
    }
    const long tasks = static_cast<long>(k) * s;
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
    for (long task = 0; task < tasks; ++task) {
      const auto i = static_cast<Index>(task / s);
      solver_->solve(i, local(scratch.r_loc[i], task),
                     local(scratch.z_loc[i], task),
                     scratch.lanes[omp_get_thread_num()].get());
    }
  }
  {
    obs::PhaseTimer t("asm.prolong", &prolong_gauge());
    std::fill(z.begin(), z.end(), 0.0);
    for (Index j = 0; j < s; ++j) {
      for (Index i = 0; i < k; ++i) {
        dec_->prolong_add(i, local(scratch.z_loc[i], i * s + j), column(z, j));
      }
    }
  }
  if (coarse_) {
    obs::PhaseTimer t("asm.coarse", &coarse_gauge());
    for (Index j = 0; j < s; ++j) {
      coarse_->apply_add(column(r, j), column(z, j));
    }
  }
}

std::string AdditiveSchwarz::name() const {
  return std::string("ddm-") + solver_->name();
}

}  // namespace ddmgnn::precond
