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

bool configs_equal(const HybridConfig& a, const HybridConfig& b) {
  return a.preconditioner == b.preconditioner && a.method == b.method &&
         a.subdomain_target_nodes == b.subdomain_target_nodes &&
         a.overlap == b.overlap && a.rel_tol == b.rel_tol &&
         a.max_iterations == b.max_iterations && a.model == b.model &&
         a.gnn_refinement_steps == b.gnn_refinement_steps &&
         a.gnn_normalize == b.gnn_normalize &&
         a.gnn_adaptive_refinement == b.gnn_adaptive_refinement &&
         a.precond_fp32 == b.precond_fp32 && a.mg_levels == b.mg_levels &&
         a.seed == b.seed && a.track_history == b.track_history;
}

}  // namespace

struct SessionCache::Entry {
  std::uint64_t fingerprint = 0;
  // Owned copies of everything the prepared session points into. All key
  // material is written once, before the entry is published into its shard,
  // so shard-locked scans may compare against it while setup is running.
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
  /// True once setup has completed — the entry is then eligible for
  /// eviction.
  std::atomic<bool> ready{false};
  /// Whether `bytes` is currently included in the cache-wide total. Guarded
  /// by the owning shard's mutex; accounting happens only for entries that
  /// are (still) published in a shard, so an entry removed mid-setup (clear,
  /// failed-setup retry) can never leak bytes into the total.
  bool accounted = false;
  /// Global-LRU recency stamp (cache clock value of the last touch).
  std::atomic<std::uint64_t> last_used{0};

  std::size_t measure() const {
    return session.memory_bytes() + dirichlet.size() +
           coordinates.size() * sizeof(mesh::Point2) +
           graph_ptr.size() * sizeof(la::Offset) +
           graph_idx.size() * sizeof(la::Index);
  }
};

void SessionCache::run_setup(Entry& e) {
  AlgebraicOptions owned_opts;
  owned_opts.dirichlet = e.dirichlet;
  owned_opts.coordinates = e.coordinates;
  if (!e.graph_ptr.empty()) {
    // Mesh-keyed: identical to setup(mesh, prob, cfg) — same graph, coords
    // and mask — but run against the entry's operator copy so the prepared
    // state points into the cache, not the caller.
    e.session.setup_from_graph(e.A, e.cfg, e.graph_ptr, e.graph_idx,
                               owned_opts);
  } else {
    e.session.setup(e.A, e.cfg, owned_opts);
  }
  // Further setup() on this shared session would re-key it out from under
  // the fingerprint index (and every concurrent holder).
  e.session.lock_setup();
  // Nothing in a prepared session grows after setup, so one measurement
  // covers the entry's lifetime.
  e.bytes = e.measure();
  e.ready.store(true, std::memory_order_release);
}

std::shared_ptr<SolverSession> SessionCache::lookup_or_insert(
    std::uint64_t fingerprint, const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts, const mesh::Mesh* m) {
  Shard& shard = shards_[fingerprint % kNumShards];
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  {
    std::lock_guard lock(shard.mutex);
    for (const auto& e : shard.entries) {
      if (e->fingerprint != fingerprint) continue;
      // Exact verification: a colliding fingerprint must degrade to a miss.
      const bool entry_mesh_keyed = !e->graph_ptr.empty();
      if (entry_mesh_keyed != (m != nullptr)) continue;
      if (m != nullptr &&
          (!spans_equal(std::span<const la::Offset>(e->graph_ptr),
                        m->adj_ptr()) ||
           !spans_equal(std::span<const la::Index>(e->graph_idx), m->adj()))) {
        continue;
      }
      if (!configs_equal(e->cfg, cfg) || !matrices_equal(e->A, A) ||
          !spans_equal(std::span<const std::uint8_t>(e->dirichlet),
                       opts.dirichlet) ||
          !spans_equal(std::span<const mesh::Point2>(e->coordinates),
                       opts.coordinates)) {
        continue;
      }
      entry = e;
      break;
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
      shard.entries.push_back(entry);
      inserted = true;
    }
    entry->last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
  }
  // Hit/miss/stampede telemetry. A waiter that arrives while the first
  // caller is still inside setup counts as a hit (it shares that one setup:
  // 1 miss + N−1 hits for an N-thread stampede), but is additionally marked
  // as a stampede-wait — it is about to block in call_once below.
  const bool will_wait =
      !inserted && !entry->ready.load(std::memory_order_acquire);
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.misses_total");
      c.inc();
    }
    obs::instant("cache.miss");
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
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

  // The setup itself runs outside every shard lock — long setups must not
  // block lookups of other operators (or eviction). call_once both
  // collapses the stampede and publishes the prepared state to waiters.
  try {
    std::call_once(entry->setup_once, [&] {
      OBS_SPAN("cache.setup");
      run_setup(*entry);
    });
  } catch (...) {
    // Failed setup (unknown name, missing model, …): unpublish the entry so
    // the key is retryable, then surface the error to this caller. Another
    // stampeding waiter retries the setup via call_once semantics and
    // reaches this same path.
    std::lock_guard lock(shard.mutex);
    auto& v = shard.entries;
    v.erase(std::remove(v.begin(), v.end(), entry), v.end());
    throw;
  }

  // The first touch after setup folds the entry's bytes into the total —
  // only while the entry is still published in the shard (an entry removed
  // mid-flight leaks nothing).
  {
    std::lock_guard lock(shard.mutex);
    if (!entry->accounted &&
        std::find(shard.entries.begin(), shard.entries.end(), entry) !=
            shard.entries.end()) {
      entry->accounted = true;
      bytes_.fetch_add(entry->bytes, std::memory_order_relaxed);
    }
  }
  if (bytes_.load(std::memory_order_relaxed) > byte_budget_) {
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
  // One evictor at a time; lookups and inserts proceed concurrently (they
  // only nudge bytes_ upward, which the loop re-reads every round).
  std::lock_guard evict_lock(evict_mutex_);
  while (bytes_.load(std::memory_order_relaxed) > byte_budget_) {
    // Find the globally least-recently-used *ready* entry. Entries mid-setup
    // are skipped: their bytes are not accounted yet and evicting them would
    // orphan the stampede's waiters.
    Shard* victim_shard = nullptr;
    std::shared_ptr<Entry> victim;
    std::size_t total_ready = 0;
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      for (const auto& e : shard.entries) {
        if (!e->ready.load(std::memory_order_acquire)) continue;
        ++total_ready;
        if (victim == nullptr ||
            e->last_used.load(std::memory_order_relaxed) <
                victim->last_used.load(std::memory_order_relaxed)) {
          victim = e;
          victim_shard = &shard;
        }
      }
    }
    // An over-budget single entry is admitted; nothing to trim.
    if (victim == nullptr || total_ready <= 1) return;
    {
      std::lock_guard lock(victim_shard->mutex);
      auto& v = victim_shard->entries;
      const auto it = std::find(v.begin(), v.end(), victim);
      if (it == v.end()) continue;  // raced with clear(); re-scan
      v.erase(it);  // holders of aliased shared_ptrs keep the session alive
      if (victim->accounted) {
        bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
      }
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::instance().counter("cache.evictions_total");
      c.inc();
    }
    obs::instant("cache.eviction", "bytes",
                 static_cast<double>(victim->bytes));
  }
}

SessionCache::Stats SessionCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

std::size_t SessionCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    n += shard.entries.size();
  }
  return n;
}

void SessionCache::clear() {
  std::lock_guard evict_lock(evict_mutex_);
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& e : shard.entries) {
      if (e->accounted) {
        bytes_.fetch_sub(e->bytes, std::memory_order_relaxed);
      }
    }
    shard.entries.clear();
  }
}

}  // namespace ddmgnn::core
