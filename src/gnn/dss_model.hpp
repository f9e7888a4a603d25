// Deep Statistical Solver (DSS) model — §III-B of the paper, after [Donon et
// al., NeurIPS 2020]. Architecture:
//
//   H⁰ = 0                                  (latent n×d, Initialization)
//   for k = 0..k̄-1:                         (k̄ distinct MPNN blocks)
//     φ→_j = Σ_{l∈N(j)} Φ→ᵏ(h_j, h_l, d_jl, ‖d_jl‖)            (Eq. 18)
//     φ←_j = Σ_{l∈N(j)} Φ←ᵏ(h_j, h_l, d_lj, ‖d_lj‖)            (Eq. 19)
//     h_j  += α · Ψᵏ(h_j, c_j, φ→_j, φ←_j)                      (Eq. 20)
//     r̂ᵏ   = Dᵏ(Hᵏ⁺¹)                        (per-iteration decoder, Eq. 22)
//
// trained with the physics-informed loss Σ_k L_res(r̂ᵏ, G) (Eq. 23), where
// L_res(u, G) = 1/n Σ_i (Σ_j a_ij u_j − b_i)² (Eq. 11).
//
// All four networks of a block are 1-hidden-layer ReLU MLPs (paper §IV-B).
// Backpropagation through the full unrolled iteration is hand-derived; the
// gradient-check unit tests validate it against finite differences.
//
// Deviation (documented in DESIGN.md): an optional extra input channel marks
// Dirichlet nodes (cfg.dirichlet_flag). With the flag off the parameter
// counts match the paper's Table II exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/dss_kernels.hpp"
#include "gnn/graph.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "nn/param_store.hpp"
#include "nn/tensor.hpp"

namespace ddmgnn::gnn {

struct DssConfig {
  int iterations = 10;  ///< k̄ — number of MPNN blocks
  int latent = 10;      ///< d — latent dimension
  int hidden = 10;      ///< MLP hidden width (paper: 10)
  float alpha = 0.05f;  ///< ResNet step (paper: 1e-3; larger trains faster on
                        ///< the small CPU budgets this repo targets)
  bool dirichlet_flag = true;  ///< extra node-input channel (see header note)
  /// Inference path selector: true routes forward() through the factorized
  /// simd engine (dss_kernels.hpp), false through the scalar reference
  /// implementation — same weights, outputs agree to float rounding (the
  /// fast-path test bounds the difference at 1e-4 relative). Not part of the
  /// serialized model identity; training always uses the reference kernels
  /// because the backward pass consumes their caches.
  bool fast_inference = true;

  int node_input_dim() const { return dirichlet_flag ? 2 : 1; }
  int message_input_dim() const { return 2 * latent + 3; }
  int update_input_dim() const {
    return latent + node_input_dim() + 2 * latent;
  }
};

/// Per-thread forward/backward scratch. Reused across calls; sized lazily.
struct DssWorkspace {
  struct IterState {
    nn::Tensor x_fwd, x_bwd;          // edge MLP inputs (E × (2d+3))
    nn::Tensor m_fwd, m_bwd;          // edge messages (E × d)
    nn::Mlp::Cache c_fwd, c_bwd;      // hidden caches of the edge MLPs
    nn::Tensor phi_fwd, phi_bwd;      // aggregated messages (n × d)
    nn::Tensor x_psi;                 // update input (n × (3d+in))
    nn::Tensor u;                     // Ψ output (n × d)
    nn::Mlp::Cache c_psi;
    nn::Tensor rhat;                  // decode (n × 1)
    nn::Mlp::Cache c_dec;
    std::vector<double> residual;     // A r̂ − c (kept for the backward pass)
  };
  std::vector<nn::Tensor> h;          // latent states H⁰..H^k̄ (n × d)
  std::vector<IterState> iters;
  // Backward scratch.
  nn::Tensor dh, dh_next, du, drhat, dx_psi, dm, dx_edge, dphi_fwd, dphi_bwd;
  /// Factorized-inference scratch: the fast path needs no per-iteration
  /// state (only the running latent), so its buffers are flat and ping-pong.
  /// With an edge cache, nothing here is per-edge.
  struct Fast {
    nn::Tensor h_cur, h_next;         // latent (n × d)
    nn::Tensor p_recv, p_send;        // node projections (n × hidden)
    nn::Tensor attr_scratch;          // cache-less attr projections (ne × hidden)
    nn::Tensor phi_fwd, phi_bwd;      // aggregated messages (n × d)
    nn::Tensor x_psi, u;              // Ψ input / output
    nn::Tensor hidden;                // MLP hidden scratch
    nn::Tensor rhat;                  // decode (n × 1)
  } fast;
};

class DssModel {
 public:
  DssModel(DssConfig cfg, std::uint64_t seed);

  const DssConfig& config() const { return cfg_; }
  /// Flip between the factorized engine and the scalar reference path
  /// (the equivalence tests A/B the two on one binary).
  void set_fast_inference(bool fast) { cfg_.fast_inference = fast; }
  std::size_t num_params() const { return store_.size(); }
  std::span<float> params() { return store_.values(); }
  std::span<const float> params() const { return store_.values(); }

  /// Precompute the per-block attr projections of `topo` for this model's
  /// current parameters — one-time setup cost that removes the attr GEMM
  /// from every subsequent fast forward on that topology. Invalidated by
  /// parameter updates (callers hold frozen trained models).
  DssEdgeCache precompute_edges(const GraphTopology& topo) const;

  /// Inference: out = r̂^k̄ (the final decode), resized to g.size().
  void forward(const GraphSample& g, DssWorkspace& ws,
               std::vector<float>& out) const;

  /// Inference with an optional precomputed edge cache (nullptr recomputes
  /// the attr projections per call) and optional per-phase wall-clock
  /// accumulation (nullptr = no timing; profile is only filled by the fast
  /// path). Honors cfg.fast_inference.
  void forward(const GraphSample& g, const DssEdgeCache* cache,
               DssWorkspace& ws, std::vector<float>& out,
               DssPhaseProfile* profile = nullptr) const;

  /// Training pass: runs forward with all intermediate decodes, accumulates
  /// parameter gradients into `grads` (size num_params()), returns the
  /// training loss Σ_k L_res(r̂ᵏ, G).
  double loss_and_gradient(const GraphSample& g, DssWorkspace& ws,
                           float* grads) const;

  /// L_res of the final decode only (the paper's "Residual" metric source).
  double final_residual_loss(const GraphSample& g, DssWorkspace& ws) const;

 private:
  struct Block {
    nn::Mlp phi_fwd;  // Φ→
    nn::Mlp phi_bwd;  // Φ←
    nn::Mlp psi;      // Ψ
    nn::Mlp dec;      // D
  };

  void run_forward(const GraphSample& g, DssWorkspace& ws,
                   bool keep_all_decodes) const;
  /// Factorized inference engine (see dss_kernels.hpp for the algebra).
  void run_forward_fast(const GraphSample& g, const DssEdgeCache* cache,
                        DssWorkspace& ws, DssPhaseProfile* profile) const;
  /// L_res and its gradient w.r.t. the decode (into ws.drhat).
  double residual_loss(const GraphTopology& topo,
                       std::span<const double> rhs, const nn::Tensor& rhat,
                       std::vector<double>& residual) const;

  DssConfig cfg_;
  nn::ParameterStore store_;
  std::vector<Block> blocks_;
};

}  // namespace ddmgnn::gnn
