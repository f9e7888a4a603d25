#include "core/solve_service.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::core {

namespace {

using Clock = std::chrono::steady_clock;

/// A claim shares out at most this many of a queue's front requests, so no
/// window is wider than ceil(16 / num_workers).
constexpr std::size_t kMaxShared = 16;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Registry instruments, resolved once (references are process-stable).
struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_size;
  obs::Histogram& queue_seconds;

  static ServiceMetrics& instance() {
    static auto& reg = obs::Registry::instance();
    static ServiceMetrics m{
        reg.counter("service.submitted_total"),
        reg.counter("service.completed_total"),
        reg.counter("service.rejected_total"),
        reg.gauge("service.queue_depth"),
        reg.histogram("service.batch_size", {},
                      {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
        reg.histogram("service.queue_seconds", {},
                      obs::default_latency_buckets()),
    };
    return m;
  }
};

}  // namespace

SolveService::SolveService(SessionCache& cache, ServiceConfig cfg)
    : cache_(cache), cfg_(cfg) {
  DDMGNN_CHECK(cfg_.num_workers >= 1, "SolveService: num_workers must be >= 1");
  DDMGNN_CHECK(cfg_.queue_capacity >= 1,
               "SolveService: queue_capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

SolveService::OperatorKey SolveService::key_for_session(
    std::shared_ptr<SolverSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  DDMGNN_CHECK(!stopping_, "SolveService::register_operator after shutdown()");
  for (std::size_t k = 0; k < operators_.size(); ++k) {
    if (operators_[k]->session.get() == session.get()) return k;
  }
  auto op = std::make_unique<OperatorState>();
  op->session = std::move(session);
  operators_.push_back(std::move(op));
  return operators_.size() - 1;
}

SolveService::OperatorKey SolveService::register_operator(
    const la::CsrMatrix& A, const HybridConfig& cfg,
    const AlgebraicOptions& opts) {
  return key_for_session(cache_.get_or_setup(A, cfg, opts));
}

SolveService::OperatorKey SolveService::register_operator(
    const mesh::Mesh& m, const fem::PoissonProblem& prob,
    const HybridConfig& cfg) {
  return key_for_session(cache_.get_or_setup(m, prob, cfg));
}

std::optional<std::future<SolveService::Reply>> SolveService::submit(
    OperatorKey op, std::vector<double> rhs) {
  Request req;
  req.rhs = std::move(rhs);
  std::future<Reply> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    DDMGNN_CHECK(!stopping_, "SolveService::submit after shutdown()");
    DDMGNN_CHECK(op < operators_.size(),
                 "SolveService::submit: unknown operator key " +
                     std::to_string(op));
    OperatorState& state = *operators_[op];
    const auto n = static_cast<std::size_t>(state.session->rows());
    DDMGNN_CHECK(req.rhs.size() == n,
                 "SolveService::submit: rhs size does not match the operator");
    space_cv_.wait(lock, [&] {
      return stopping_ || state.queue.size() < cfg_.queue_capacity;
    });
    if (stopping_) return reject();
    // Stamped at admission, under the lock: each queue is then ordered by
    // `enqueued`, so its front is its oldest request.
    req.enqueued = Clock::now();
    state.queue.push_back(std::move(req));
    ++queued_;
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      auto& m = ServiceMetrics::instance();
      m.submitted.inc();
      m.queue_depth.set(static_cast<double>(queued_));
    }
  }
  work_cv_.notify_one();
  return fut;
}

std::nullopt_t SolveService::reject() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) ServiceMetrics::instance().rejected.inc();
  obs::instant("service.reject");
  return std::nullopt;
}

std::optional<std::pair<std::size_t, std::vector<SolveService::Request>>>
SolveService::claim_window() {
  // Queues are ordered by admission, so the oldest waiting request is the
  // oldest of the fronts.
  std::size_t best = operators_.size();
  for (std::size_t k = 0; k < operators_.size(); ++k) {
    const auto& q = operators_[k]->queue;
    if (!q.empty() && (best == operators_.size() ||
                       q.front().enqueued <
                           operators_[best]->queue.front().enqueued)) {
      best = k;
    }
  }
  if (best == operators_.size()) return std::nullopt;
  OperatorState& op = *operators_[best];
  const auto workers = static_cast<std::size_t>(cfg_.num_workers);
  const std::size_t take =
      (std::min(op.queue.size(), kMaxShared) + workers - 1) / workers;
  std::vector<Request> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(op.queue.front()));
    op.queue.pop_front();
  }
  queued_ -= take;
  if (obs::metrics_enabled()) {
    ServiceMetrics::instance().queue_depth.set(static_cast<double>(queued_));
  }
  return std::make_pair(best, std::move(batch));
}

void SolveService::execute_window(OperatorState& op,
                                  std::vector<Request> batch) {
  const auto exec_start = Clock::now();
  const std::size_t s = batch.size();
  windows_.fetch_add(1, std::memory_order_relaxed);
  columns_.fetch_add(s, std::memory_order_relaxed);
  std::uint64_t seen = max_window_.load(std::memory_order_relaxed);
  while (s > seen &&
         !max_window_.compare_exchange_weak(seen, s,
                                            std::memory_order_relaxed)) {
  }
  const bool metrics = obs::metrics_enabled();
  if (metrics) {
    auto& m = ServiceMetrics::instance();
    m.batch_size.observe(static_cast<double>(s));
    for (const Request& r : batch) {
      m.queue_seconds.observe(seconds_between(r.enqueued, exec_start));
    }
  }
  obs::Span window_span("service.window");
  window_span.arg("batch", static_cast<double>(s));

  std::vector<std::vector<double>> bs;
  bs.reserve(s);
  for (Request& r : batch) bs.push_back(std::move(r.rhs));
  std::vector<solver::SolveResult> results;
  std::vector<std::vector<double>> xs;
  try {
    // A singleton window is solve_many's single-column solve().
    results = op.session->solve_many(bs, xs);
  } catch (...) {
    // A failed window fails each of its requests individually; the service
    // itself stays up (the next window is independent work).
    const auto err = std::current_exception();
    for (Request& r : batch) r.promise.set_exception(err);
    return;
  }

  // Preconditioner-apply accounting: a batched window pays one fused apply
  // per BLOCK iteration — the max over its columns' iteration counts (a
  // column's `iterations` is the block iteration at which it converged; any
  // scalar-fallback iterations are folded into that column's count, so max
  // remains the honest total). A singleton window pays one apply per scalar
  // iteration.
  std::uint64_t applies = 0;
  for (const auto& res : results) {
    applies = std::max(applies, static_cast<std::uint64_t>(res.iterations));
  }
  precond_applies_.fetch_add(applies, std::memory_order_relaxed);
  window_span.arg("iterations", static_cast<double>(applies));

  const auto done = Clock::now();
  // Count completions BEFORE fulfilling any promise: a client that harvests
  // its future and immediately reads stats() must see itself counted.
  completed_.fetch_add(s, std::memory_order_relaxed);
  if (metrics) ServiceMetrics::instance().completed.inc(s);
  for (std::size_t i = 0; i < s; ++i) {
    Reply reply;
    reply.result = std::move(results[i]);
    reply.x = std::move(xs[i]);
    reply.queue_seconds = seconds_between(batch[i].enqueued, exec_start);
    reply.batch_columns = static_cast<int>(s);
    reply.completed_at = done;
    batch[i].promise.set_value(std::move(reply));
  }
}

void SolveService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::optional<std::pair<std::size_t, std::vector<Request>>> window;
    if (!paused_ || stopping_) window = claim_window();
    if (window) {
      OperatorState& op = *operators_[window->first];
      // The rest of the queue is a peer's to claim.
      const bool left = queued_ > 0;
      lock.unlock();
      if (left) work_cv_.notify_one();
      // Freed queue space: wake one blocked submitter per popped request.
      space_cv_.notify_all();
      execute_window(op, std::move(window->second));
      lock.lock();
      continue;
    }
    if (stopping_ && queued_ == 0) return;
    work_cv_.wait(lock);
  }
}

void SolveService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    paused_ = false;  // drain overrides pause
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void SolveService::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void SolveService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

SolveService::Stats SolveService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.windows = windows_.load(std::memory_order_relaxed);
  s.columns = columns_.load(std::memory_order_relaxed);
  s.max_window = max_window_.load(std::memory_order_relaxed);
  s.precond_applies = precond_applies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ddmgnn::core
