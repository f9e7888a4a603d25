// Inference kernels of the fused DSS engine, plus the scalar reference
// implementations they are tested against.
//
// The algebra (exact, not approximate). The first layer of an edge MLP
// computes [h_recv | h_send | ±attr]·W₁ᵀ + b₁ on every edge. Split
// W₁ = [W_recv | W_send | W_attr] by column block and it becomes
//
//   pre[e] = (H·W_recvᵀ + b₁)[recv[e]] + (H·W_sendᵀ)[send[e]] + attr[e]·W_attrᵀ
//
// node GEMMs plus a per-edge sum. Both message directions read the same H,
// so each block k runs three node loops:
//
//   1. projection: one GEMM of H (n × d) against the packed
//      [W_recv→ | W_recv← | W_send→ | W_send←] (d × 4h), with both
//      directions' b₁ folded into the receiver half.
//   2. edge pass (the "aggregate" phase): per receiver j, one 2h-wide sum
//      over its receiver-CSR segment,
//        S_j = Σ_{e→j} ReLU(P_recv[j] + P_send[send[e]] + dx·w_x + dy·w_y
//                           + dist·w_d),
//      for Φ→ and Φ← at once (Φ←'s dx/dy sign is baked into its weights),
//      written straight into node j's Ψ input row. The attr terms are three
//      broadcast multiply-adds per edge; nothing per edge is stored.
//   3. update: the edge MLPs' second layer is linear and Eqs. 18–19
//      aggregate by summation, so φ_j = W₂·S_j + deg_j·b₂; and Ψ's first
//      layer is linear in φ, so W₂ folds into it:
//        Wψ_φ·φ_j = (Wψ_φ·W₂)·S_j + deg_j·(Wψ_φ·b₂).
//      Ψ runs over the node row [h | c | flag | S→ | S←] with the folded
//      weights, then its second layer, then h += α·u. A receiver without
//      incoming edges has S_j = 0 and deg_j = 0: its message input is
//      exactly zero.
//
// Each loop is parallel over nodes with a fixed per-node arithmetic order,
// so results are bitwise identical at any thread count. The paper's shape
// d = h = 10 runs a fixed-width instantiation of the loops; every other
// shape runs the same template with runtime widths.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/graph.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace ddmgnn::gnn {

/// A frozen DssModel's weights laid out for the fused forward: transposed to
/// [in × out], Φ←'s dx/dy signs baked in, and each edge MLP's second layer
/// folded into Ψ's first (the products composed in double and rounded to
/// float once). Built by DssModel::pack_weights(); valid as long as the
/// model's parameters are unchanged (frozen trained models at inference).
struct DssPackedWeights {
  struct Block {
    std::vector<float> proj;       ///< d × 4h: [W_recv→ | W_recv← | W_send→ | W_send←]
    std::vector<float> proj_bias;  ///< 4h: [b₁→ | b₁← | 0 | 0]
    std::vector<float> attr;       ///< 3 × 2h: the dx, dy and dist rows
    std::vector<float> upd;        ///< row_width() × h: Ψ layer 1, W₂ folded in
    std::vector<float> upd_bias;   ///< h: Ψ's b₁
    std::vector<float> upd_deg;    ///< h: Wψ_φ→·b₂→ + Wψ_φ←·b₂←, times deg_j
    std::vector<float> out;        ///< h × d: Ψ layer 2
    std::vector<float> out_bias;   ///< d: Ψ's b₂
  };
  int latent = 0;       ///< d
  int hidden = 0;       ///< h
  int node_inputs = 0;  ///< nin: 1, or 2 with the Dirichlet flag
  float alpha = 0.0f;   ///< ResNet step
  std::vector<Block> blocks;

  /// Width of a node's Ψ input row [h | c | flag | S→ | S←]: d + nin + 2h.
  /// It equals Ψ's own input width only when h = d.
  int row_width() const { return latent + node_inputs + 2 * hidden; }
  std::size_t bytes() const;
};

/// Wall-clock seconds per phase of one (or many, accumulated) fast forward
/// passes — what record_phase_profile turns into the dss.* metrics and spans.
struct DssPhaseProfile {
  double projection = 0.0;  ///< dss_project
  double gather = 0.0;      ///< always 0: the gather runs inside aggregate
  double aggregate = 0.0;   ///< dss_edge_pass
  double update = 0.0;      ///< dss_update
  double decode = 0.0;      ///< decoder MLP

  double total() const {
    return projection + gather + aggregate + update + decode;
  }
};

/// Telemetry bridge: fold one measured forward pass into the obs layer — a
/// "dss.forward" span over [start_ns, end_ns) with the five phases laid
/// end-to-end as child spans (when tracing), and per-phase dss.*_seconds
/// gauges (when metrics are on). The profile is only filled by the fast
/// path; a zero total() still emits the parent span so wall-time coverage
/// holds on the reference path. Safe to call from OpenMP worker threads.
void record_phase_profile(const DssPhaseProfile& prof, std::int64_t start_ns,
                          std::int64_t end_ns);

/// Reference edge-input assembly: row e = [h_recv, h_send, ±dx, ±dy, dist].
void build_edge_inputs(const GraphTopology& topo, const nn::Tensor& h,
                       bool flip_direction, nn::Tensor& x);

/// Reference aggregation: phi[recv[e]] += m[e], serial scatter in edge order.
void aggregate_scatter(const GraphTopology& topo, const nn::Tensor& m,
                       Index n, nn::Tensor& phi);

/// Segmented aggregation over the receiver-CSR index: parallel over nodes,
/// per-node accumulation order identical to aggregate_scatter — bitwise
/// equal results at any thread count. Requires finalize_topology().
void aggregate_segmented(const GraphTopology& topo, const nn::Tensor& m,
                         nn::Tensor& phi);

/// Attr-column projection y[e,:] = [s·dx, s·dy, dist]·W_attrᵀ + b with
/// W_attr = columns [col0, col0+3) of the row-major [out × ldw] matrix `w`
/// (the edge MLP's first layer) and s = sign. The bias is folded in here so
/// the gather kernel is pure adds.
void project_attr(const GraphTopology& topo, const float* w, int ldw,
                  int col0, const float* b, float sign, int out,
                  nn::Tensor& y);

/// Gather: e_act[e,:] = ReLU(p_recv[recv[e],:] + p_send[send[e],:] +
/// attr_proj[e,:]) — the factorized first layer's activation, materialized
/// per edge. With Linear::forward_fused and aggregate_segmented it forms the
/// three-step test oracle for the fused edge pass and update.
void gather_edge_preact(const GraphTopology& topo, const nn::Tensor& p_recv,
                        const nn::Tensor& p_send, const nn::Tensor& attr_proj,
                        nn::Tensor& e_act);

/// Loop 1 of block k: proj[i,:] = H[i,:]·[W_recv→ | W_recv← | W_send→ |
/// W_send←] + [b₁→ | b₁← | 0 | 0], where H is the first d columns of the
/// n × row_width() node-row tensor `x`.
void dss_project(const DssPackedWeights& w, int k, const nn::Tensor& x,
                 nn::Tensor& proj);

/// Loop 2 of block k: the two-direction edge pass. For every receiver j,
/// S_j (2h wide) = Σ_{e→j} ReLU(proj[j, 0:2h] + proj[send[e], 2h:4h] +
/// dx·w_x + dy·w_y + dist·w_d), written to x[j, d+nin : d+nin+2h]; 0 for a
/// node without incoming edges. Requires finalize_topology().
void dss_edge_pass(const GraphTopology& topo, const DssPackedWeights& w,
                   int k, const nn::Tensor& proj, nn::Tensor& x);

/// Loop 3 of block k: per node, u = Ψ₂(ReLU(x[j,:]·Ψ₁' + b + deg_j·g))
/// with Ψ₁' the folded first layer and g = upd_deg, then
/// x[j, 0:d] += α·u. `scratch` holds per-node accumulators for shapes
/// without a fixed-width instantiation.
void dss_update(const GraphTopology& topo, const DssPackedWeights& w, int k,
                nn::Tensor& x, nn::Tensor& scratch);

}  // namespace ddmgnn::gnn
