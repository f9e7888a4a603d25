#include "core/gnn_subdomain_solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gnn/dss_kernels.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

/// A local residual norm at or below this is zero: its correction is 0.
constexpr double kZeroThreshold = 1e-300;
/// Adaptive setup: the contraction ‖r − A_i z‖/‖r‖ a subdomain's pass count
/// must reach on each of kProbes deterministic residuals within
/// kMaxRefinementSteps extra passes, or the subdomain takes the exact
/// factor.
constexpr double kContractionTarget = 0.25;
constexpr int kMaxRefinementSteps = 3;
constexpr int kProbes = 2;
/// The GNN apply must be predicted MORE than this many times costlier than
/// the exact sweeps before cost alone sends a contractive subdomain to the
/// exact factor — a wide margin, so only overwhelming mismatches flip, never
/// modeling noise.
constexpr double kFallbackCostMargin = 8.0;

/// One timed + traced DSS inference. The phase profile is only collected
/// while timing is on; the disabled path is the bare virtual call.
inline void timed_forward(const gnn::DssModel& model,
                          const gnn::GraphSample& sample,
                          const gnn::DssPackedWeights& packed,
                          gnn::DssWorkspace& dss, std::vector<float>& out) {
  if (!obs::timing_enabled()) {
    model.forward(sample, &packed, dss, out);
    return;
  }
  gnn::DssPhaseProfile prof;
  const std::int64_t t0 = obs::TraceRecorder::instance().now_ns();
  model.forward(sample, &packed, dss, out, &prof);
  gnn::record_phase_profile(prof, t0, obs::TraceRecorder::instance().now_ns());
}

/// One lane of inference scratch, touched only by the OpenMP thread it was
/// handed to for the duration of one apply: two clients hammering the same
/// solver never share a DssWorkspace (the former `static thread_local` did —
/// across ALL solver instances — and was both a data race on concurrent
/// sessions and an unaccounted leak).
struct GnnWorkspace final : precond::SubdomainSolver::Workspace {
  gnn::DssWorkspace dss;
  gnn::GraphSample sample;       // topo rebound per solve, rhs owned here
  std::vector<float> out;
  std::vector<double> residual;  // current local residual
  la::SkylineCholesky::Scratch chol;  // fallback sweeps
};

GnnWorkspace& workspace_of(precond::SubdomainSolver::Workspace* ws) {
  auto* gws = dynamic_cast<GnnWorkspace*>(ws);
  DDMGNN_CHECK(gws != nullptr,
               "GnnSubdomainSolver: solve needs a workspace from this "
               "solver's make_workspace()");
  return *gws;
}

}  // namespace

GnnSubdomainSolver::GnnSubdomainSolver(const gnn::DssModel& model,
                                       const mesh::Mesh& m,
                                       std::span<const std::uint8_t> dirichlet,
                                       Options options)
    : GnnSubdomainSolver(
          model, std::vector<mesh::Point2>(m.points().begin(), m.points().end()),
          std::vector<std::uint8_t>(dirichlet.begin(), dirichlet.end()),
          gnn::adjacency_pattern(m.adj_ptr(), m.adj()), options) {}

GnnSubdomainSolver::GnnSubdomainSolver(const gnn::DssModel& model,
                                       std::vector<mesh::Point2> coords,
                                       std::vector<std::uint8_t> dirichlet,
                                       la::CsrMatrix message_pattern,
                                       Options options)
    : model_(&model),
      coords_(std::move(coords)),
      dirichlet_(std::move(dirichlet)),
      mesh_pattern_(std::move(message_pattern)),
      options_(options) {
  DDMGNN_CHECK(coords_.size() == dirichlet_.size() &&
                   mesh_pattern_.rows() == static_cast<la::Index>(coords_.size()),
               "GnnSubdomainSolver: geometry/pattern size mismatch");
}

void GnnSubdomainSolver::setup(std::vector<la::CsrMatrix> local_matrices,
                               const partition::Decomposition& dec) {
  DDMGNN_CHECK(dec.num_nodes() == static_cast<la::Index>(coords_.size()),
               "GnnSubdomainSolver: geometry size mismatch");
  const auto k = static_cast<la::Index>(local_matrices.size());
  topologies_.resize(k);
  // One packed copy of the frozen model's weights, shared by every lane.
  model_->pack_weights(packed_);
  obs::Span setup_span("gnn.setup");
  parallel_for_dynamic(k, [&](long i) {
    const auto& nodes = dec.subdomains[i];
    std::vector<mesh::Point2> local_coords(nodes.size());
    std::vector<std::uint8_t> local_dirichlet(nodes.size());
    for (std::size_t l = 0; l < nodes.size(); ++l) {
      local_coords[l] = coords_[nodes[l]];
      local_dirichlet[l] = dirichlet_[nodes[l]];
    }
    const la::CsrMatrix local_pattern =
        mesh_pattern_.principal_submatrix(nodes);
    topologies_[i] = gnn::build_topology(std::move(local_matrices[i]),
                                         local_coords, local_dirichlet,
                                         &local_pattern);
  });

  refine_steps_.clear();
  fallback_.clear();
  fallback_count_ = 0;
  if (!options_.adaptive_refinement) return;

  // Refine-until-contractive: probe each subdomain with deterministic unit
  // residuals and keep the smallest pass count whose measured contraction
  // ‖r − A_i z‖/‖r‖ meets the target; subdomains the model cannot contract
  // within the pass budget get an exact Cholesky fallback. Contractive
  // subdomains additionally get the exact solve when a flop model
  // (deterministic — no timing, so the chosen configuration is reproducible
  // across runs and machines) predicts the refined GNN apply to cost more
  // than kFallbackCostMargin × the envelope sweeps.
  refine_steps_.assign(k, std::max(0, options_.refinement_steps));
  fallback_.resize(k);
  const int max_steps =
      std::max(options_.refinement_steps, kMaxRefinementSteps);
  const gnn::DssConfig& mc = model_->config();
  std::atomic<la::Index> fallbacks{0};
  parallel_for_dynamic(k, [&](long i) {
    const auto& topo = topologies_[i];
    const auto n = static_cast<std::size_t>(topo->n);
    gnn::DssWorkspace dss;  // setup-time scratch, dropped after probing
    gnn::GraphSample sample;
    sample.topo = topo;
    sample.rhs.resize(n);
    std::vector<float> out;
    std::vector<double> r(n), z(n), res(n);
    int needed = -1;  // pass count reaching the target, max over probes
    for (int probe = 0; probe < kProbes; ++probe) {
      Rng rng((0x5EEDull << 32) ^ (static_cast<std::uint64_t>(i) << 8) ^
              static_cast<std::uint64_t>(probe));
      for (std::size_t l = 0; l < n; ++l) r[l] = rng.uniform(-1.0, 1.0);
      const double r0 = la::norm2(r);
      std::fill(z.begin(), z.end(), 0.0);
      res = r;
      int reached = -1;
      for (int pass = 0; pass <= max_steps; ++pass) {
        const double norm = la::norm2(res);
        if (norm <= kZeroThreshold) {
          reached = pass == 0 ? 0 : pass - 1;
          break;
        }
        const double inv = options_.normalize_input ? 1.0 / norm : 1.0;
        for (std::size_t l = 0; l < n; ++l) sample.rhs[l] = res[l] * inv;
        timed_forward(*model_, sample, packed_, dss, out);
        const double scale = options_.normalize_input ? norm : 1.0;
        for (std::size_t l = 0; l < n; ++l) {
          z[l] += scale * static_cast<double>(out[l]);
        }
        topo->a_local.multiply(z, res);
        for (std::size_t l = 0; l < n; ++l) res[l] = r[l] - res[l];
        const double rho = la::norm2(res) / (r0 > 0.0 ? r0 : 1.0);
        if (std::isfinite(rho) && rho <= kContractionTarget) {
          reached = pass;
          break;
        }
      }
      if (reached < 0) {
        needed = -1;  // one bad probe disqualifies the subdomain
        break;
      }
      needed = std::max(needed, reached);
    }
    bool use_fallback = needed < 0;  // non-contractive: correctness fallback
    std::unique_ptr<la::SkylineCholesky> chol;
    if (!use_fallback) {
      // Cost model, per preconditioner application. Exact: forward+backward
      // envelope sweeps, 2 flops per stored entry each (the factorization is
      // one-time setup cost, not counted). GNN: (passes+1) inferences, each
      // k̄ fused blocks of the projection GEMM (n × d × 4h), the
      // two-direction edge pass (2h activations per edge at nine flops each:
      // four adds, three multiplies, the ReLU and the sum), the folded Ψ
      // layer (n × (d + nin + 2h) × h) and Ψ's second layer (n × h × d), then
      // the decoder (n × d × h).
      chol = std::make_unique<la::SkylineCholesky>(topo->a_local);
      const double exact_flops =
          4.0 * static_cast<double>(chol->envelope_size());
      const double nd = static_cast<double>(topo->n);
      const double ne = static_cast<double>(topo->num_edges());
      const double d = static_cast<double>(mc.latent);
      const double h = static_cast<double>(mc.hidden);
      const double row = d + static_cast<double>(mc.node_input_dim()) + 2.0 * h;
      const double per_inference =
          static_cast<double>(mc.iterations) *
              (8.0 * nd * d * h + 18.0 * ne * h + 2.0 * nd * row * h +
               2.0 * nd * h * d) +
          2.0 * nd * d * h;
      const double gnn_flops = (needed + 1) * per_inference;
      use_fallback = gnn_flops > kFallbackCostMargin * exact_flops;
    }
    if (use_fallback) {
      if (!chol) chol = std::make_unique<la::SkylineCholesky>(topo->a_local);
      if (options_.fp32_fallback) chol->enable_fp32();
      fallback_[i] = std::move(chol);
      fallbacks.fetch_add(1, std::memory_order_relaxed);
    } else {
      refine_steps_[i] = std::max(refine_steps_[i], needed);
    }
  });
  fallback_count_ = fallbacks.load();
  int max_chosen = 0;
  for (la::Index i = 0; i < k; ++i) {
    if (!fallback_[i]) max_chosen = std::max(max_chosen, refine_steps_[i]);
  }
  setup_span.arg("adaptive_fallback_subdomains",
                 static_cast<double>(fallback_count_));
  setup_span.arg("adaptive_max_passes", static_cast<double>(max_chosen));
  if (obs::metrics_enabled()) {
    obs::Registry::instance()
        .gauge("gnn.adaptive_fallback_subdomains")
        .set(static_cast<double>(fallback_count_));
    obs::Registry::instance()
        .gauge("gnn.adaptive_max_passes")
        .set(static_cast<double>(max_chosen));
  }
}

std::unique_ptr<precond::SubdomainSolver::Workspace>
GnnSubdomainSolver::make_workspace() const {
  return std::make_unique<GnnWorkspace>();
}

std::size_t GnnSubdomainSolver::workspace_bytes() const {
  // Coarse steady-state estimate of one warmed-up lane, sized to the largest
  // subdomain: the fused DSS forward's per-node tensors (node rows, the 4h
  // projections, the update scratch that only runtime-width shapes use, the
  // decoder's latent, hidden and output; nothing per edge), plus the rhs and
  // residual buffers.
  long max_nodes = 0;
  for (const auto& t : topologies_) max_nodes = std::max<long>(max_nodes, t->n);
  const auto& cfg = model_->config();
  const long row = cfg.latent + cfg.node_input_dim() + 2 * cfg.hidden;
  return static_cast<std::size_t>(max_nodes) *
         ((row + 4 * cfg.hidden + (cfg.hidden + cfg.latent) + cfg.latent +
           cfg.hidden + 1) *
              sizeof(float) +
          2 * sizeof(double));
}

void GnnSubdomainSolver::solve(la::Index i, std::span<const double> r,
                               std::span<double> z, Workspace* ws) const {
  GnnWorkspace& lane = workspace_of(ws);
  if (!fallback_.empty() && fallback_[i] != nullptr) {
    // Non-contractive subdomain: exact local solve (adaptive setup).
    std::copy(r.begin(), r.end(), z.begin());
    if (options_.fp32_fallback) {
      fallback_[i]->solve_inplace_fp32(z, lane.chol);
    } else {
      fallback_[i]->solve_inplace(z, lane.chol);
    }
    return;
  }
  const auto& topo = topologies_[i];
  const std::size_t n = r.size();
  const int steps =
      refine_steps_.empty() ? options_.refinement_steps : refine_steps_[i];
  std::fill(z.begin(), z.end(), 0.0);
  gnn::GraphSample& sample = lane.sample;
  sample.topo = topo;
  sample.rhs.resize(n);
  std::vector<float>& out = lane.out;
  std::vector<double>& res = lane.residual;  // current local residual
  res.assign(r.begin(), r.end());
  for (int pass = 0; pass <= steps; ++pass) {
    const double norm = la::norm2(res);
    if (norm <= kZeroThreshold) break;
    const double inv = options_.normalize_input ? 1.0 / norm : 1.0;
    for (std::size_t j = 0; j < n; ++j) sample.rhs[j] = res[j] * inv;
    timed_forward(*model_, sample, packed_, lane.dss, out);
    const double scale = options_.normalize_input ? norm : 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      z[j] += scale * static_cast<double>(out[j]);
    }
    if (pass == steps) break;
    // res = r − A_i z for the next correction pass.
    topo->a_local.multiply(z, res);
    for (std::size_t j = 0; j < n; ++j) res[j] = r[j] - res[j];
  }
  sample.topo.reset();  // drop the shared ref; the rhs buffer stays warm
}

}  // namespace ddmgnn::core
