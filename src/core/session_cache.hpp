// Operator-keyed cache of prepared SolverSessions. Services that re-solve
// families of problems (parameter sweeps, repeated time-stepping campaigns,
// per-tenant operators) hit the same operators again and again — a cache hit
// returns the already-prepared session and skips the entire setup phase
// (partitioning, factorizations, DSS graph construction, coarse space),
// whose cost perfbench reports as setup_s next to each workload's solve_s.
//
// Keying: a 64-bit FNV-1a fingerprint over the operator's CSR arrays, its
// setup graph and the extra algebraic structure (dirichlet mask,
// coordinates) — not the HybridConfig. A fingerprint match is verified by
// exact comparison of all of these and of the config (HybridConfig's
// defaulted operator==, so a new config field keys the cache with no code
// here) before a hit is declared: one operator under several configs is
// several entries sharing a fingerprint, and a hash collision degrades to a
// miss, never to a wrong session.
//
// Ownership: each entry owns a private copy of its operator (and mesh /
// problem for the mesh-keyed overload), so cached sessions never dangle when
// the caller's matrix goes out of scope. Returned shared_ptrs alias the
// entry — an evicted-but-still-held session stays fully usable, which is
// also what makes eviction safe under concurrency: the cache can only drop
// its own reference, never free a session another thread is solving on. The
// one reference an entry does NOT own is cfg.model: trained models are large
// and shared, so GNN-preconditioned entries require the model to outlive the
// cache (the model pointer is part of the key).
//
// Concurrency: get_or_setup is safe from any number of threads. One mutex
// guards the entry list, the byte total, the recency clock and the counters;
// it is held only for scans, list surgery and bookkeeping — never across a
// setup or a solve. Setup stampedes are collapsed per entry: the first
// caller runs the one setup inside the entry's std::call_once while every
// concurrent caller for the same key blocks on that flag and then shares the
// prepared session — N threads racing for one cold operator cost exactly one
// setup (1 miss + N−1 hits). Solving on the returned sessions concurrently
// is safe because prepared sessions are immutable at solve time (see the
// Preconditioner apply-workspace contract); the solve-time *toggle* below is
// the deliberate exception.
//
// Sharing contract: every hit hands out the SAME session object, mutably —
// deliberately, so the solve-time toggle set_method works on cached
// sessions for A/B comparisons. That toggle affects every holder (flip it
// only while no other client is mid-solve), and calling setup()
// on a cache-returned session throws ContractError — it would re-key the
// shared prepared state out from under the entry's stored fingerprint.
// Re-key through the cache instead — get_or_setup with the new
// operator/config.
//
// Eviction: least-recently-used by a byte budget, measured once when an
// entry's setup finishes with SolverSession::memory_bytes() plus the entry's
// owned copies (nothing in a prepared session grows after setup). Only
// entries whose setup finished (and whose bytes are therefore in the total)
// can be evicted. A single entry larger than the whole budget is admitted
// (the alternative — refusing to cache — silently re-pays setup forever) and
// becomes the first eviction candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/solver_session.hpp"

namespace ddmgnn::core {

class SessionCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
  };

  explicit SessionCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

  /// Mesh-keyed lookup: returns the prepared session for (prob, cfg),
  /// running SolverSession::setup(mesh, prob, cfg) on a miss.
  std::shared_ptr<SolverSession> get_or_setup(const mesh::Mesh& m,
                                              const fem::PoissonProblem& prob,
                                              const HybridConfig& cfg);

  /// Matrix-keyed lookup for the algebraic path: returns the prepared
  /// session for (A, cfg, opts), running setup(A, cfg, opts) on a miss.
  std::shared_ptr<SolverSession> get_or_setup(
      const la::CsrMatrix& A, const HybridConfig& cfg,
      const AlgebraicOptions& opts = {});

  Stats stats() const;
  std::size_t size() const;
  std::size_t size_bytes() const;
  std::size_t byte_budget() const { return byte_budget_; }

 private:
  struct Entry;

  std::shared_ptr<SolverSession> lookup_or_insert(
      std::uint64_t fingerprint, const la::CsrMatrix& A,
      const HybridConfig& cfg, const AlgebraicOptions& opts,
      const mesh::Mesh* m);
  /// Drops least-recently-used entries until the total fits the budget (or
  /// one entry is left). Caller holds mu_.
  void evict_over_budget();

  const std::size_t byte_budget_;
  mutable std::mutex mu_;
  // Guarded by mu_. Entries are scanned linearly: caches hold a handful of
  // operators, and a hit's exact verification touches the arrays anyway.
  std::vector<std::shared_ptr<Entry>> entries_;
  std::size_t bytes_ = 0;
  /// Recency clock: every lookup stamps its entry, eviction removes the
  /// smallest stamp.
  std::uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace ddmgnn::core
