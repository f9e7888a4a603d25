// The GNN local solver that turns two-level ASM into the paper's DDM-GNN
// preconditioner (§III-A). For each subdomain i, per preconditioner
// application:
//
//   1. norm_i = ‖R_i r‖;  if 0, the correction is 0            (trivial case)
//   2. r̃_i = DSSθ(G_i) with G_i = (Ω_h,i, R_i r / norm_i)      (Eq. 14/15/17)
//   3. z_i = norm_i · r̃_i                                      (Eq. 16 local)
//
// The normalization is the paper's fix for vanishing residual inputs: as PCG
// converges, r → 0, and an un-normalized GNN would collapse to the zero
// correction, stalling the solver. The ablation bench switches it off.
//
// AdditiveSchwarz solves all subdomains (and, for a block apply, all
// columns) concurrently — OpenMP over graphs, the CPU analogue of the
// paper's batched GPU inference. A set-up solver is immutable and safe for
// many *client* threads at once: inference scratch lives in the caller-owned
// lane Workspace (one DssWorkspace per OpenMP lane per caller — never shared
// across solver instances or client threads).
#pragma once

#include <memory>
#include <vector>

#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/skyline_cholesky.hpp"
#include "mesh/mesh.hpp"
#include "precond/subdomain_solver.hpp"

namespace ddmgnn::core {

class GnnSubdomainSolver final : public precond::SubdomainSolver {
 public:
  struct Options {
    bool normalize_input = true;  // the §III-A normalization (ablatable)
    double zero_threshold = 1e-300;
    /// Extra residual-correction passes per local solve:
    ///   v ← v + ‖res‖ · DSSθ(G_i(res/‖res‖)),  res = r_i − A_i v.
    /// 0 reproduces the paper exactly (one inference per subdomain per PCG
    /// iteration). Each step multiplies local accuracy at one extra
    /// inference — the repo's compensation for its smaller CPU training
    /// budget (see DESIGN.md); the ablation bench quantifies it.
    int refinement_steps = 0;
    /// Refine-until-contractive setup (the served-configuration fix): probe
    /// each subdomain at setup() with a few deterministic residuals, run the
    /// refinement loop on the probe, and keep the smallest pass count whose
    /// measured contraction ‖r − A_i z‖/‖r‖ reaches contraction_target. A
    /// subdomain still above the target after max_refinement_steps extra
    /// passes is non-contractive for this model and falls back to an exact
    /// skyline-Cholesky local solve. refinement_steps then acts as the
    /// per-subdomain floor.
    bool adaptive_refinement = false;
    double contraction_target = 0.25;
    int max_refinement_steps = 3;
    int probes = 2;
    /// Within the adaptive setup, also fall back to the exact solve when a
    /// deterministic flop model says the refined GNN apply costs more than
    /// cost_margin × the Cholesky sweeps. A contractive-but-uneconomic
    /// subdomain is a real serving failure mode on CPU: at small subdomain
    /// sizes the envelope sweep is both cheaper AND exact, and the GNN local
    /// solve only pays off where batched inference amortizes (large
    /// subdomains, GPU-class backends). Set false to force the GNN apply on
    /// every contractive subdomain regardless of cost (ablations, kernel
    /// benchmarking).
    bool cost_aware_fallback = true;
    /// GNN must be predicted MORE than this many times costlier than the
    /// exact sweeps before cost alone triggers the fallback — a wide margin,
    /// so only overwhelming mismatches (100×+ is typical at Ns≈350 on CPU)
    /// flip, never modeling noise.
    double fallback_cost_margin = 8.0;
    /// Run the Cholesky-fallback sweeps on an fp32 factor copy — the local
    /// piece of a mixed-precision apply (pair with SolveOptions::precond_fp32;
    /// the outer Krylov's flexibility/true-residual guard absorbs the
    /// rounding).
    bool fp32_fallback = false;
  };

  /// `model` must outlive the solver. `m` supplies node geometry and the
  /// mesh adjacency (subdomain message graphs follow the sub-mesh, Eq. 17);
  /// `dirichlet` the global Dirichlet flags.
  GnnSubdomainSolver(const gnn::DssModel& model, const mesh::Mesh& m,
                     std::span<const std::uint8_t> dirichlet, Options options);
  GnnSubdomainSolver(const gnn::DssModel& model, const mesh::Mesh& m,
                     std::span<const std::uint8_t> dirichlet)
      : GnnSubdomainSolver(model, m, dirichlet, Options{}) {}
  /// Geometry-generic form for the matrix-first setup path: node positions
  /// (mesh points or synthetic spectral coordinates) and an explicit
  /// message-graph pattern (unit CSR; subdomain graphs are its principal
  /// submatrices) instead of a mesh. The mesh constructor delegates here
  /// with (points, mesh adjacency), so both paths share one code path.
  GnnSubdomainSolver(const gnn::DssModel& model,
                     std::vector<mesh::Point2> coords,
                     std::vector<std::uint8_t> dirichlet,
                     la::CsrMatrix message_pattern, Options options);

  void setup(std::vector<la::CsrMatrix> local_matrices,
             const partition::Decomposition& dec) override;

  /// One lane's scratch: a DssWorkspace plus the rhs/output/residual
  /// buffers and the fallback sweep buffer. Replaces the former
  /// function-local `static thread_local` workspaces, which were shared by
  /// every solver instance on a thread and never freed.
  std::unique_ptr<Workspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;

  /// Subdomain i's local solve (steps 1–3 above, plus the refinement passes)
  /// or, for an adaptive-setup fallback subdomain, its exact sweeps.
  void solve(la::Index i, std::span<const double> r, std::span<double> z,
             Workspace* ws) const override;
  std::string name() const override { return "gnn"; }
  /// A neural local solve is not a symmetric linear map.
  bool is_symmetric() const override { return false; }

  /// Per-topology attr-projection caches (empty entries when the model runs
  /// the reference inference path). Built at setup() against the model's
  /// then-current parameters — the solver assumes a frozen trained model.
  const std::vector<std::shared_ptr<const gnn::DssEdgeCache>>& edge_caches()
      const {
    return edge_caches_;
  }
  /// Adaptive-setup outcome: the number of subdomains served by the exact
  /// Cholesky fallback (0 when adaptive_refinement is off).
  la::Index fallback_count() const { return fallback_count_; }

 private:
  const gnn::DssModel* model_;
  std::vector<mesh::Point2> coords_;
  std::vector<std::uint8_t> dirichlet_;
  la::CsrMatrix mesh_pattern_;  // global message graph (unit values):
                                // mesh adjacency or matrix adjacency
  Options options_;
  std::vector<std::shared_ptr<gnn::GraphTopology>> topologies_;
  std::vector<std::shared_ptr<const gnn::DssEdgeCache>> edge_caches_;
  /// Adaptive-setup state (empty when adaptive_refinement is off): chosen
  /// per-subdomain pass counts and, for non-contractive subdomains, the
  /// exact Cholesky fallback factors. Immutable after setup().
  std::vector<int> refine_steps_;
  std::vector<std::unique_ptr<la::SkylineCholesky>> fallback_;
  la::Index fallback_count_ = 0;
};

}  // namespace ddmgnn::core
