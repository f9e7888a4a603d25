// Overlapping domain decomposition: the METIS substitute.
//
// `decompose` produces K balanced connected parts by farthest-point-seeded
// multi-source BFS growth plus a boundary-smoothing pass, then expands each
// part by `overlap` BFS layers (the paper partitions into ~1000-node
// sub-meshes with overlap 2 or 4). The node lists double as the boolean
// restriction operators R_i of §II-A: R_i x = gather, R_iᵀ y = scatter.
//
// Cost, for N nodes, E adjacency entries and K parts. METIS, which the paper
// uses, is linear in the graph; every pass here is too at bounded degree,
// apart from a scan of N/64 block maxima per seed:
//  * seeds: each new seed relaxes the BFS distances of the nodes it brings
//    closer, about ln K times per node over all K seeds; finding the next
//    farthest node scans N/64 per-block distance maxima and one block;
//  * growth: a frontier node's neighbor list is rescanned once per node it
//    adds, O(Σ deg²) = O(N + E) at bounded degree, plus O(log K) heap work
//    per step; nodes no frontier reaches (other components, isolated rows)
//    cost O(log K) each;
//  * smoothing: two O(N + E) sweeps;
//  * overlap: one O(N) bucketing pass, then O(E) per layer around each part
//    and a sort of each subdomain list;
//  * weights: O(N) plus the subdomain list lengths.
// The passes are serial and order-dependent. The output is a pure function of
// (graph, K, overlap, seed), pinned bit for bit by partition_test's
// `Decomposition.FingerprintIsPinned`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "la/csr.hpp"

namespace ddmgnn::partition {

using la::Index;
using la::Offset;

struct Decomposition {
  Index num_parts = 0;
  /// Core (non-overlapping) part of each node.
  std::vector<Index> owner;
  /// Overlapping subdomain node lists, each sorted ascending (defines R_i).
  std::vector<std::vector<Index>> subdomains;
  /// 1 / (#subdomains containing the node): the partition-of-unity weights
  /// used by the Nicolaides coarse space.
  std::vector<double> inv_multiplicity;

  Index num_nodes() const { return static_cast<Index>(owner.size()); }

  /// Gather: out[l] = x[subdomains[i][l]].
  void restrict_to(Index i, std::span<const double> x,
                   std::span<double> out) const;
  /// Scatter-add: y[subdomains[i][l]] += x[l].
  void prolong_add(Index i, std::span<const double> x,
                   std::span<double> y) const;
};

/// Node-to-node adjacency in mesh::Mesh's CSR layout (sorted neighbor lists,
/// no self loops) — the graph `decompose` walks. Derivable from a mesh or,
/// for matrix-first callers, from an assembled operator's sparsity pattern.
struct AdjacencyGraph {
  std::vector<Offset> ptr;
  std::vector<Index> idx;

  Index num_nodes() const { return static_cast<Index>(ptr.size()) - 1; }
};

/// Adjacency of the (symmetrized) off-diagonal *stored* pattern of `A` — the
/// algebraic stand-in for the mesh graph when only the operator is known.
/// Explicitly stored zeros count as edges (assemblers that keep eliminated
/// couplings as structural zeros thus reproduce the mesh graph exactly);
/// identity rows with no stored couplings become isolated nodes, which
/// `decompose` absorbs into the nearest part.
AdjacencyGraph matrix_adjacency(const la::CsrMatrix& A);

/// Partition the undirected graph given by CSR adjacency into `num_parts`
/// parts and expand by `overlap` layers. `adj_ptr/adj` follow mesh::Mesh's
/// adjacency layout.
Decomposition decompose(std::span<const Offset> adj_ptr,
                        std::span<const Index> adj, Index num_parts,
                        int overlap, std::uint64_t seed = 0);

/// Choose K ≈ n / target_size (at least 1).
Decomposition decompose_target_size(std::span<const Offset> adj_ptr,
                                    std::span<const Index> adj,
                                    Index target_size, int overlap,
                                    std::uint64_t seed = 0);

/// Balance diagnostic: max part size / mean part size (cores, pre-overlap).
double balance_ratio(const Decomposition& d);

}  // namespace ddmgnn::partition
