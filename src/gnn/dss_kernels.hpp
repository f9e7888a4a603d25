// Inference kernels of the factorized DSS engine, plus the scalar reference
// implementations they are tested against.
//
// The factorization (exact, not approximate): the first layer of an edge MLP
// computes  [h_recv | h_send | ±attr] · W₁ᵀ + b₁  over all ne edges. Split
// W₁ = [W_recv | W_send | W_attr] by column block and the per-edge GEMM
// becomes
//
//   pre[e] = (H·W_recvᵀ)[recv[e]] + (H·W_sendᵀ)[send[e]] + (attr·W_attrᵀ + b₁)[e]
//
// i.e. two n×d GEMMs on node states (instead of one ne×(2d+3) GEMM on a
// materialized edge-input matrix) plus a per-edge gather-sum. The attr term
// depends only on edge geometry and frozen model parameters, so it is
// precomputed once per (topology, model) pair — DssEdgeCache — and reused
// across every apply of every solve.
//
// The second layer is linear and Eqs. 18–19 aggregate by summation, so it
// commutes with the aggregation:
//
//   φ_j = Σ_{e→j} (W₂ a_e + b₂) = W₂ (Σ_{e→j} a_e) + deg_j · b₂
//
// with a_e the ReLU'd first-layer activation. The engine sums activations
// over each receiver's segment of the receiver-CSR index
// (GraphTopology::recv_ptr / recv_order) and applies W₂ once per node:
// parallel over nodes, no atomics, and a fixed per-node order, so results
// are identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/graph.hpp"
#include "nn/mlp.hpp"
#include "nn/tensor.hpp"

namespace ddmgnn::gnn {

/// Precomputed attr-column projections of the edge MLPs' first layers:
/// per message-passing block k, fwd[k] / bwd[k] hold the ne × hidden matrix
/// attr·W_attrᵀ + b₁ for the plain (Φ→) and sign-flipped (Φ←) edge
/// attributes. Valid as long as both the topology and the model parameters
/// are unchanged (frozen trained models at inference time).
struct DssEdgeCache {
  std::vector<nn::Tensor> fwd;
  std::vector<nn::Tensor> bwd;

  std::size_t bytes() const {
    std::size_t b = 0;
    for (const auto& t : fwd) b += t.size() * sizeof(float);
    for (const auto& t : bwd) b += t.size() * sizeof(float);
    return b;
  }
};

/// Wall-clock seconds per phase of one (or many, accumulated) fast forward
/// passes — the bench_precond_apply breakdown.
struct DssPhaseProfile {
  double projection = 0.0;  ///< node/edge GEMMs of the message MLPs
  double gather = 0.0;      ///< always 0: the gather runs inside aggregate
  double aggregate = 0.0;   ///< fused_layer2_aggregate
  double update = 0.0;      ///< Ψ input assembly + MLP + ResNet step
  double decode = 0.0;      ///< decoder MLP

  double total() const {
    return projection + gather + aggregate + update + decode;
  }
  DssPhaseProfile& operator+=(const DssPhaseProfile& o) {
    projection += o.projection;
    gather += o.gather;
    aggregate += o.aggregate;
    update += o.update;
    decode += o.decode;
    return *this;
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
/// three-step test oracle for fused_layer2_aggregate.
void gather_edge_preact(const GraphTopology& topo, const nn::Tensor& p_recv,
                        const nn::Tensor& p_send, const nn::Tensor& attr_proj,
                        nn::Tensor& e_act);

/// Aggregate-then-project message layer: φ[j,:] = W₂·Σ_{e→j} a_e + deg_j·b₂
/// with a_e = ReLU(p_recv[j,:] + p_send[send[e],:] + attr_proj[e,:]), `w2`
/// row-major [out × hid] and `b2` the layer-2 bias. Per edge this is hid
/// adds; W₂ runs once per node (through fused_gemm), not once per edge. A
/// node without incoming edges gets φ_j = 0. Agrees with gather_edge_preact
/// + Linear::forward_fused + aggregate_segmented to float rounding, and is
/// bitwise identical at any thread count. Requires finalize_topology().
void fused_layer2_aggregate(const GraphTopology& topo,
                            const nn::Tensor& p_recv,
                            const nn::Tensor& p_send,
                            const nn::Tensor& attr_proj, const float* w2,
                            const float* b2, int out, nn::Tensor& phi);

}  // namespace ddmgnn::gnn
