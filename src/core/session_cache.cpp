#include "core/session_cache.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/error.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

template <typename T>
std::uint64_t hash_span(std::span<const T> s, std::uint64_t h) {
  return fnv1a(s.data(), s.size() * sizeof(T), h);
}

template <typename T>
std::uint64_t hash_pod(const T& v, std::uint64_t h) {
  return fnv1a(&v, sizeof(T), h);
}

std::uint64_t fingerprint_of(const la::CsrMatrix& A, const HybridConfig& cfg,
                             const AlgebraicOptions& opts,
                             const mesh::Mesh* m) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  // Source tag + setup graph: a mesh-keyed session is prepared with the mesh
  // adjacency, a matrix-keyed one with the matrix pattern — identical
  // (A, cfg, opts) must NOT collide across the two, or a hit would return a
  // session decomposed over the wrong graph.
  const std::uint8_t mesh_keyed = m != nullptr ? 1 : 0;
  h = hash_pod(mesh_keyed, h);
  if (m != nullptr) {
    h = hash_span(m->adj_ptr(), h);
    h = hash_span(m->adj(), h);
  }
  h = hash_pod(A.rows(), h);
  h = hash_pod(A.cols(), h);
  h = hash_span(A.row_ptr(), h);
  h = hash_span(A.col_idx(), h);
  h = hash_span(A.values(), h);
  h = hash_span(opts.dirichlet, h);
  h = hash_span(opts.coordinates, h);
  h = fnv1a(cfg.preconditioner.data(), cfg.preconditioner.size(), h);
  const int method = cfg.method.has_value()
                         ? static_cast<int>(*cfg.method)
                         : -1;
  h = hash_pod(method, h);
  h = hash_pod(cfg.subdomain_target_nodes, h);
  h = hash_pod(cfg.overlap, h);
  h = hash_pod(cfg.rel_tol, h);
  h = hash_pod(cfg.max_iterations, h);
  h = hash_pod(cfg.model, h);  // identity of the shared trained model
  h = hash_pod(cfg.gnn_refinement_steps, h);
  h = hash_pod(cfg.gnn_normalize, h);
  h = hash_pod(cfg.gnn_adaptive_refinement, h);
  h = hash_pod(cfg.precond_fp32, h);
  h = hash_pod(cfg.mg_levels, h);
  h = hash_pod(cfg.seed, h);
  h = hash_pod(cfg.track_history, h);
  return h;
}

template <typename T>
bool spans_equal(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool matrices_equal(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         spans_equal(a.row_ptr(), b.row_ptr()) &&
         spans_equal(a.col_idx(), b.col_idx()) &&
         spans_equal(a.values(), b.values());
}

}  // namespace

struct SessionCache::Entry {
  std::uint64_t fingerprint = 0;
  // Owned copies of everything the prepared session points into. All key
  // material is written once, before the entry is published, so locked
  // scans may compare against it while setup is running.
  la::CsrMatrix A;
  std::vector<std::uint8_t> dirichlet;
  std::vector<mesh::Point2> coordinates;
  // The setup graph for mesh-keyed entries (empty for matrix-keyed ones,
  // whose graph is derivable from A): part of the exact-verify so the
  // collision guarantee holds across the two setup paths.
  std::vector<la::Offset> graph_ptr;
  std::vector<la::Index> graph_idx;
  HybridConfig cfg;
  SolverSession session;
  /// measure(), taken once when setup finishes (written inside setup_once,
  /// so every caller past call_once sees it).
  std::size_t bytes = 0;
  /// Stampede collapse: the one setup for this key runs inside this flag;
  /// concurrent callers block here until the session is prepared.
  std::once_flag setup_once;
  // Guarded by the cache mutex.
  /// Set by the first caller past call_once while the entry is still
  /// published: setup has finished and `bytes` is in the cache total, so the
  /// entry may now be evicted.
  bool accounted = false;
  /// Recency stamp (cache clock value of the last lookup).
  std::uint64_t last_used = 0;

  bool matches(const la::CsrMatrix& a, const HybridConfig& c,
               const AlgebraicOptions& opts, const mesh::Mesh* m) const {
    if (graph_ptr.empty() != (m == nullptr)) return false;
    if (m != nullptr &&
        (!spans_equal(std::span<const la::Offset>(graph_ptr), m->adj_ptr()) ||
         !spans_equal(std::span<const la::Index>(graph_idx), m->adj()))) {
      return false;
    }
    return cfg == c && matrices_equal(A, a) &&
           spans_equal(std::span<const std::uint8_t>(dirichlet),
                       opts.dirichlet) &&
           spans_equal(std::span<const mesh::Point2>(coordinates),
                       opts.coordinates);
  }

  std::size_t measure() const {
    return session.memory_bytes() + dirichlet.size() +
           coordinates.size() * sizeof(mesh::Point2) +
           graph_ptr.size() * sizeof(la::Offset) +
           graph_idx.size() * sizeof(la::Index);
  }

  void run_setup() {
    AlgebraicOptions owned_opts;
    owned_opts.dirichlet = dirichlet;
    owned_opts.coordinates = coordinates;
    if (!graph_ptr.empty()) {
      // Mesh-keyed: identical to setup(mesh, prob, cfg) — same graph,
      // coords and mask — but run against the entry's operator copy so the
      // prepared state points into the cache, not the caller.
      session.setup_from_graph(A, cfg, graph_ptr, graph_idx, owned_opts);
    } else {
      session.setup(A, cfg, owned_opts);
    }
    // Further setup() on this shared session would re-key it out from under
    // the fingerprint index (and every concurrent holder).
    session.lock_setup();
    // Nothing in a prepared session grows after setup, so one measurement
    // covers the entry's lifetime.
    bytes = measure();
  }
};

std::shared_ptr<SolverSession> SessionCache::lookup_or_insert(
    std::uint64_t fingerprint, const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts, const mesh::Mesh* m) {
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  bool will_wait = false;
  {
    std::lock_guard lock(mu_);
    for (const auto& e : entries_) {
      // Exact verification: a colliding fingerprint must degrade to a miss.
      if (e->fingerprint == fingerprint && e->matches(A, cfg, opts, m)) {
        entry = e;
        break;
      }
    }
    if (entry == nullptr) {
      entry = std::make_shared<Entry>();
      entry->fingerprint = fingerprint;
      entry->A = A;  // private copy: must outlive the caller's matrix
      entry->dirichlet.assign(opts.dirichlet.begin(), opts.dirichlet.end());
      entry->coordinates.assign(opts.coordinates.begin(),
                                opts.coordinates.end());
      entry->cfg = cfg;
      if (m != nullptr) {
        entry->graph_ptr.assign(m->adj_ptr().begin(), m->adj_ptr().end());
        entry->graph_idx.assign(m->adj().begin(), m->adj().end());
      }
      entries_.push_back(entry);
      inserted = true;
      ++stats_.misses;
    } else {
      // A caller that arrives while the first one is still inside setup
      // counts as a hit (it shares that one setup: 1 miss + N−1 hits for an
      // N-thread stampede), and is additionally marked as a stampede-wait —
      // it is about to block in call_once below.
      will_wait = !entry->accounted;
      ++stats_.hits;
    }
    entry->last_used = ++clock_;
  }
  if (inserted) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.misses_total");
      c.inc();
    }
    obs::instant("cache.miss");
  } else {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.hits_total");
      c.inc();
      if (will_wait) {
        static obs::Counter& w =
            obs::Registry::instance().counter("cache.stampede_waits_total");
        w.inc();
      }
    }
    obs::instant(will_wait ? "cache.stampede_wait" : "cache.hit");
  }

  // The setup itself runs outside the lock — long setups must not block
  // lookups of other operators. call_once both collapses the stampede and
  // publishes the prepared state to waiters.
  try {
    std::call_once(entry->setup_once, [&] {
      OBS_SPAN("cache.setup");
      entry->run_setup();
    });
  } catch (...) {
    // Failed setup (unknown name, missing model, …): unpublish the entry so
    // the key is retryable, then surface the error to this caller. Another
    // stampeding waiter retries the setup via call_once semantics and
    // reaches this same path.
    std::lock_guard lock(mu_);
    std::erase(entries_, entry);
    throw;
  }

  // The first caller past setup folds the entry's bytes into the total —
  // only while the entry is still published (one unpublished by a failed
  // setup and then set up by a retrying waiter leaks nothing).
  std::lock_guard lock(mu_);
  if (!entry->accounted &&
      std::find(entries_.begin(), entries_.end(), entry) != entries_.end()) {
    entry->accounted = true;
    bytes_ += entry->bytes;
    evict_over_budget();
  }
  return {entry, &entry->session};
}

std::shared_ptr<SolverSession> SessionCache::get_or_setup(
    const mesh::Mesh& m, const fem::PoissonProblem& prob,
    const HybridConfig& cfg) {
  AlgebraicOptions opts;
  opts.dirichlet = prob.dirichlet;
  opts.coordinates = m.points();
  return lookup_or_insert(fingerprint_of(prob.A, cfg, opts, &m), prob.A, cfg,
                          opts, &m);
}

std::shared_ptr<SolverSession> SessionCache::get_or_setup(
    const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts) {
  return lookup_or_insert(fingerprint_of(A, cfg, opts, nullptr), A, cfg, opts,
                          nullptr);
}

void SessionCache::evict_over_budget() {
  while (bytes_ > byte_budget_) {
    // The least-recently-used accounted entry. Entries mid-setup are
    // skipped: their bytes are not in the total yet and evicting them would
    // orphan the stampede's waiters.
    auto victim = entries_.end();
    std::size_t accounted = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!(*it)->accounted) continue;
      ++accounted;
      if (victim == entries_.end() || (*it)->last_used < (*victim)->last_used) {
        victim = it;
      }
    }
    // An over-budget single entry is admitted; nothing to trim.
    if (accounted <= 1) return;
    const std::size_t victim_bytes = (*victim)->bytes;
    bytes_ -= victim_bytes;
    // Holders of aliased shared_ptrs keep the session alive.
    entries_.erase(victim);
    ++stats_.evictions;
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.evictions_total");
      c.inc();
    }
    obs::instant("cache.eviction", "bytes", static_cast<double>(victim_bytes));
  }
}

SessionCache::Stats SessionCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t SessionCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

std::size_t SessionCache::size_bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

}  // namespace ddmgnn::core
