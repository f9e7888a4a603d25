// Graph representation of a local (subdomain) Poisson problem — Eq. 15/17 of
// the paper: G_i = (Ω_h,i, R_i r / ||R_i r||). Topology (geometry + edges +
// local operator) is shared between the many residual samples of a subdomain;
// a GraphSample adds the per-sample normalized right-hand side.
//
// Edge rule (§III-B): the graph is undirected except at Dirichlet nodes,
// whose edges point toward the interior — i.e. a Dirichlet node sends
// messages but never receives any. Edge attributes are the relative position
// d_jl = x_l − x_j and its norm (the paper's discretization-free variant).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "la/csr.hpp"
#include "mesh/geometry.hpp"

namespace ddmgnn::gnn {

using la::CsrMatrix;
using la::Index;

struct GraphTopology {
  Index n = 0;
  /// Directed message edges: node send[e] -> node recv[e] (recv aggregates).
  std::vector<Index> recv;
  std::vector<Index> send;
  /// Per-edge geometry [dx, dy, dist] with (dx,dy) = pos[send] − pos[recv],
  /// i.e. d_jl for receiver j and sender l.
  std::vector<float> attr;
  /// Local Dirichlet flags (global-boundary nodes inside the subdomain).
  std::vector<std::uint8_t> dirichlet;
  /// Local operator A_i = R_i A R_iᵀ — used by the physics-informed loss and
  /// by the exact local solve in metrics.
  CsrMatrix a_local;

  /// CSR-by-receiver view of the edge list, built once at construction by
  /// finalize_topology(): edges recv_order[recv_ptr[j] .. recv_ptr[j+1]) all
  /// have receiver j, in increasing edge order (stable). This turns message
  /// aggregation into a segmented reduction parallelizable over nodes with
  /// no atomics — per-node summation order equals the serial scatter's, so
  /// results are bitwise reproducible at any thread count.
  std::vector<la::Offset> recv_ptr;
  std::vector<Index> recv_order;

  Index num_edges() const { return static_cast<Index>(recv.size()); }
};

/// One training / inference sample: shared topology + normalized source term.
struct GraphSample {
  std::shared_ptr<const GraphTopology> topo;
  /// c = R_i r / ||R_i r|| (double, drives the loss).
  std::vector<double> rhs;

  Index size() const { return topo->n; }
};

/// Build the topology from a local operator and node coordinates. Message
/// edges follow the off-diagonal pattern of `edge_pattern` when given (the
/// sub-mesh adjacency — the paper's Ω_h,i graph, which keeps the
/// boundary→interior links that symmetric Dirichlet elimination removes from
/// A), else the pattern of `a_local`. Edges into Dirichlet receivers are
/// dropped (the paper's directed-boundary rule).
std::shared_ptr<GraphTopology> build_topology(
    CsrMatrix a_local, std::span<const mesh::Point2> coords,
    std::span<const std::uint8_t> dirichlet,
    const CsrMatrix* edge_pattern = nullptr);

/// Mesh adjacency as a pattern-only CSR (unit values), restrictable with
/// principal_submatrix to give each subdomain its Ω_h,i message graph.
CsrMatrix adjacency_pattern(std::span<const la::Offset> adj_ptr,
                            std::span<const Index> adj);

/// (Re)build the receiver-CSR index (recv_ptr / recv_order) from the edge
/// list — a stable counting sort by receiver, O(n + ne). Every construction
/// site (build_topology, dataset I/O) calls this; custom
/// topologies assembled by hand must call it before fast-path inference.
void finalize_topology(GraphTopology& topo);

}  // namespace ddmgnn::gnn
