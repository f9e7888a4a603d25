#include "partition/decomposition.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ddmgnn::partition {

void Decomposition::restrict_to(Index i, std::span<const double> x,
                                std::span<double> out) const {
  const auto& nodes = subdomains[i];
  DDMGNN_CHECK(out.size() == nodes.size(), "restrict_to: size mismatch");
  for (std::size_t l = 0; l < nodes.size(); ++l) out[l] = x[nodes[l]];
}

void Decomposition::prolong_add(Index i, std::span<const double> x,
                                std::span<double> y) const {
  const auto& nodes = subdomains[i];
  DDMGNN_CHECK(x.size() == nodes.size(), "prolong_add: size mismatch");
  for (std::size_t l = 0; l < nodes.size(); ++l) y[nodes[l]] += x[l];
}

namespace {

/// Farthest-point seeds: the next seed is the lowest-index node farthest from
/// every seed so far. Each new seed relaxes the multi-source BFS distances
/// through the nodes it brings closer (about ln K relaxations per node over
/// all seeds), and only the 64-node blocks a relaxation touched get their
/// maximum recomputed, so finding the farthest node scans N/64 block maxima
/// and one block instead of all N distances.
std::vector<Index> pick_seeds(std::span<const Offset> adj_ptr,
                              std::span<const Index> adj, Index n, Index k,
                              Rng& rng) {
  constexpr Index kBlock = 64;
  std::vector<Index> dist(n, -1);
  std::vector<Index> block_max((n + kBlock - 1) / kBlock, -1);
  std::vector<char> touched(block_max.size(), 0);
  std::vector<Index> touched_blocks, frontier, next;
  auto touch = [&](Index v) {
    const Index b = v / kBlock;
    if (!touched[b]) {
      touched[b] = 1;
      touched_blocks.push_back(b);
    }
  };
  auto relax_from = [&](Index s) {
    dist[s] = 0;
    touch(s);
    frontier.assign(1, s);
    while (!frontier.empty()) {
      next.clear();
      for (const Index u : frontier) {
        for (Offset e = adj_ptr[u]; e < adj_ptr[u + 1]; ++e) {
          const Index v = adj[e];
          if (dist[v] < 0 || dist[v] > dist[u] + 1) {
            dist[v] = dist[u] + 1;
            next.push_back(v);
            touch(v);
          }
        }
      }
      frontier.swap(next);
    }
    for (const Index b : touched_blocks) {
      const auto first = dist.begin() + b * kBlock;
      const auto last = dist.begin() + std::min(n, (b + 1) * kBlock);
      block_max[b] = *std::max_element(first, last);
      touched[b] = 0;
    }
    touched_blocks.clear();
  };

  std::vector<Index> seeds;
  seeds.reserve(k);
  seeds.push_back(static_cast<Index>(rng.uniform_index(n)));
  relax_from(seeds[0]);
  while (static_cast<Index>(seeds.size()) < k) {
    // max_element returns the first maximum: the lowest block holding the
    // largest distance, then the lowest node in it at that distance.
    const auto top = std::max_element(block_max.begin(), block_max.end());
    Index far = static_cast<Index>(top - block_max.begin()) * kBlock;
    while (dist[far] != *top) ++far;
    seeds.push_back(far);
    relax_from(far);
  }
  return seeds;
}

}  // namespace

AdjacencyGraph matrix_adjacency(const la::CsrMatrix& A) {
  DDMGNN_CHECK(A.rows() == A.cols(), "matrix_adjacency: matrix must be square");
  const Index n = A.rows();
  const auto rp = A.row_ptr();
  const auto ci = A.col_idx();
  // Union of the pattern with its transpose: collect both directions of every
  // stored off-diagonal entry, then sort + dedup per row.
  std::vector<std::pair<Index, Index>> edges;
  edges.reserve(static_cast<std::size_t>(A.nnz()) * 2);
  for (Index i = 0; i < n; ++i) {
    for (Offset e = rp[i]; e < rp[i + 1]; ++e) {
      const Index j = ci[e];
      if (j == i) continue;
      edges.emplace_back(i, j);
      edges.emplace_back(j, i);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  AdjacencyGraph g;
  g.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  g.idx.reserve(edges.size());
  for (const auto& [i, j] : edges) {
    ++g.ptr[static_cast<std::size_t>(i) + 1];
    g.idx.push_back(j);
  }
  for (Index i = 0; i < n; ++i) g.ptr[i + 1] += g.ptr[i];
  return g;
}

Decomposition decompose(std::span<const Offset> adj_ptr,
                        std::span<const Index> adj, Index num_parts,
                        int overlap, std::uint64_t seed) {
  const Index n = static_cast<Index>(adj_ptr.size()) - 1;
  DDMGNN_CHECK(num_parts >= 1 && num_parts <= n, "decompose: bad num_parts");
  DDMGNN_CHECK(overlap >= 0, "decompose: negative overlap");
  Rng rng(seed ^ 0x2545F4914F6CDD1Dull);

  Decomposition dec;
  dec.num_parts = num_parts;
  dec.owner.assign(n, -1);

  // --- 1. Balanced growth: always extend the currently smallest part. ---
  const std::vector<Index> seeds = pick_seeds(adj_ptr, adj, n, num_parts, rng);
  std::vector<std::queue<Index>> frontier(num_parts);
  std::vector<Index> size(num_parts, 0);
  using HeapItem = std::pair<Index, Index>;  // (part size, part id)
  using MinHeap =
      std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;
  MinHeap heap;      // parts with a live frontier
  MinHeap smallest;  // every part, keyed by a size that may lag behind
  // Owners are never reset during growth, so every node below `cursor` stays
  // owned and the first unowned node is found by a scan that only moves on.
  Index cursor = 0;
  auto first_unowned = [&] {
    while (cursor < n && dec.owner[cursor] != -1) ++cursor;
    return cursor;
  };
  for (Index p = 0; p < num_parts; ++p) {
    Index s = seeds[p];
    if (dec.owner[s] != -1) {
      // Seed collision (tiny graphs): fall back to any unassigned node.
      s = first_unowned();
      DDMGNN_CHECK(s < n, "decompose: more parts than nodes");
    }
    dec.owner[s] = p;
    size[p] = 1;
    frontier[p].push(s);
    heap.push({1, p});
    smallest.push({1, p});
  }
  Index assigned = num_parts;
  while (assigned < n) {
    if (heap.empty()) {
      // Disconnected leftover: give it to the smallest part (lowest id on
      // ties) and restart a frontier from there. Sizes only grow, so a
      // stale key sits too low: re-key the top until it is current.
      while (smallest.top().first != size[smallest.top().second]) {
        const Index p = smallest.top().second;
        smallest.pop();
        smallest.push({size[p], p});
      }
      const Index p_min = smallest.top().second;
      const Index v = first_unowned();
      dec.owner[v] = p_min;
      ++size[p_min];
      ++assigned;
      frontier[p_min].push(v);
      heap.push({size[p_min], p_min});
      continue;
    }
    const auto [sz, p] = heap.top();
    heap.pop();
    if (sz != size[p]) continue;  // stale heap entry
    bool grew = false;
    while (!frontier[p].empty() && !grew) {
      const Index u = frontier[p].front();
      for (Offset e = adj_ptr[u]; e < adj_ptr[u + 1]; ++e) {
        const Index v = adj[e];
        if (dec.owner[v] == -1) {
          dec.owner[v] = p;
          ++size[p];
          ++assigned;
          frontier[p].push(v);
          grew = true;
          break;
        }
      }
      if (!grew) frontier[p].pop();  // u exhausted
    }
    if (grew || !frontier[p].empty()) heap.push({size[p], p});
  }

  // --- 2. Boundary smoothing: move nodes to the majority part of their
  //        neighborhood when balance permits (reduces jagged interfaces). ---
  const Index max_size =
      static_cast<Index>(1.1 * static_cast<double>(n) / num_parts) + 2;
  std::vector<Index> count(num_parts, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (Index u = 0; u < n; ++u) {
      const Index cur = dec.owner[u];
      Index best = cur;
      Index best_count = 0;
      Index cur_count = 0;
      for (Offset e = adj_ptr[u]; e < adj_ptr[u + 1]; ++e) {
        const Index p = dec.owner[adj[e]];
        const Index c = ++count[p];
        if (p == cur) cur_count = c;
        if (c > best_count) {
          best_count = c;
          best = p;
        }
      }
      for (Offset e = adj_ptr[u]; e < adj_ptr[u + 1]; ++e)
        count[dec.owner[adj[e]]] = 0;  // reset scratch
      if (best != cur && best_count > cur_count + 1 && size[cur] > 1 &&
          size[best] < max_size) {
        dec.owner[u] = best;
        --size[cur];
        ++size[best];
      }
    }
  }

  // --- 3. Overlap expansion: `overlap` BFS layers around each core. ---
  // Bucketing by owner in one ascending pass lists each core in order.
  dec.subdomains.assign(num_parts, {});
  for (Index v = 0; v < n; ++v) dec.subdomains[dec.owner[v]].push_back(v);
  {
    std::vector<Index> mark(n, -1);
    std::vector<Index> layer, next;
    for (Index p = 0; p < num_parts; ++p) {
      auto& nodes = dec.subdomains[p];
      for (const Index v : nodes) mark[v] = p;
      layer = nodes;
      for (int l = 0; l < overlap; ++l) {
        next.clear();
        for (const Index u : layer) {
          for (Offset e = adj_ptr[u]; e < adj_ptr[u + 1]; ++e) {
            const Index v = adj[e];
            if (mark[v] != p) {
              mark[v] = p;
              nodes.push_back(v);
              next.push_back(v);
            }
          }
        }
        layer.swap(next);
      }
      std::sort(nodes.begin(), nodes.end());
    }
  }

  // --- 4. Partition-of-unity weights. ---
  dec.inv_multiplicity.assign(n, 0.0);
  for (const auto& nodes : dec.subdomains) {
    for (const Index v : nodes) dec.inv_multiplicity[v] += 1.0;
  }
  for (Index v = 0; v < n; ++v) {
    DDMGNN_CHECK(dec.inv_multiplicity[v] > 0.0, "decompose: uncovered node");
    dec.inv_multiplicity[v] = 1.0 / dec.inv_multiplicity[v];
  }
  return dec;
}

Decomposition decompose_target_size(std::span<const Offset> adj_ptr,
                                    std::span<const Index> adj,
                                    Index target_size, int overlap,
                                    std::uint64_t seed) {
  const Index n = static_cast<Index>(adj_ptr.size()) - 1;
  DDMGNN_CHECK(target_size > 0, "decompose_target_size: bad target");
  const Index k = std::max<Index>(
      1, static_cast<Index>(std::lround(static_cast<double>(n) / target_size)));
  return decompose(adj_ptr, adj, k, overlap, seed);
}

double balance_ratio(const Decomposition& d) {
  if (d.num_parts == 0) return 1.0;
  std::vector<Index> size(d.num_parts, 0);
  for (const Index p : d.owner) ++size[p];
  const double mean =
      static_cast<double>(d.owner.size()) / static_cast<double>(d.num_parts);
  Index mx = 0;
  for (const Index s : size) mx = std::max(mx, s);
  return static_cast<double>(mx) / mean;
}

}  // namespace ddmgnn::partition
