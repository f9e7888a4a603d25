// Streaming solve service: an asynchronous admission layer that turns
// concurrent single-RHS traffic into block solves.
//
// Call-and-wait serving makes every client thread pay a full scalar Krylov
// solve even when many requests against the same prepared operator are in
// flight at once. But solve_many's block engine runs ONE SpMM and ONE block
// preconditioner application (for the Schwarz preconditioners, all K×s
// local solves in one parallel region) per iteration, and the shared search
// space of block flexible PCG converges each column in fewer iterations than
// solving it alone. SolveService routes streaming traffic through that path:
//
//   core::SessionCache cache(1u << 30);
//   core::SolveService svc(cache, {.num_workers = 2});
//   const auto op = svc.register_operator(A, cfg);      // prepared via cache
//   auto fut = svc.submit(op, std::move(rhs));          // returns immediately
//   ...
//   core::SolveService::Reply r = fut->get();           // per-RHS result
//
// A request is an operator key and a right-hand side; every solve starts
// from a zero guess.
//
// Dynamic batching: each operator owns a FIFO admission queue, and no timer
// closes a window. A worker that is free (and the service not paused) takes
// the queue whose front request is oldest and claims its front
// ceil(min(queue, 16) / num_workers) requests at once, running them as one
// solve_many call. A window is therefore just what queued while the workers
// were busy: a request that finds a worker idle runs at once, alone, and a
// backlog is shared out so that each worker that frees takes its part and
// leaves the rest for its peers. Sharing by num_workers, not by the number
// of idle workers, keeps a worker that frees while its peers run from
// taking the whole queue. Block FPCG does not get cheaper per column as a
// window widens on the served operator, so a narrower window on another
// worker is the cheapest capacity left. Futures complete individually, each
// with its own SolveResult and solution.
//
// Backpressure: queues are bounded (cfg.queue_capacity per operator); at
// capacity, submit() blocks until a worker frees space. Shutdown drains:
// destruction (or shutdown()) stops admission, flushes every queued request
// through the workers, and joins — no admitted future is ever abandoned. A
// submit still waiting for space when shutdown() runs is refused (nullopt).
//
// Instrumentation (obs::, active when the corresponding flag is on):
//   service.submitted_total / completed_total / rejected_total   counters
//   service.queue_depth                                          gauge
//   service.batch_size                                           histogram
//   service.queue_seconds   (admission → window execution start) histogram
//   service.window          span per executed window (batch/iterations args)
//   service.reject          instant per refused submit
// Always-on aggregate Stats (atomics, snapshot via stats()) back the bench
// and the tests without requiring the metrics flag.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/session_cache.hpp"

namespace ddmgnn::core {

struct ServiceConfig {
  /// Worker threads executing windows. Workers are the solve parallelism
  /// axis (a window runs on one worker); independent windows — same or
  /// different operators — run concurrently, which prepared sessions
  /// support by contract. Each claim takes a 1/num_workers share of its
  /// queue's front and leaves the rest to the other workers.
  int num_workers = 2;
  /// Bound on queued (admitted, not yet executing) requests per operator;
  /// submit() waits for space beyond it.
  std::size_t queue_capacity = 256;
};

class SolveService {
 public:
  /// Names one registered operator (a prepared session + its admission
  /// queue). Keys are dense indices, stable for the service lifetime.
  using OperatorKey = std::size_t;

  /// What a completed future yields: the per-RHS solve outcome, the
  /// solution, and the request's trip through the service.
  struct Reply {
    solver::SolveResult result;
    std::vector<double> x;
    /// Admission → window execution start (the batching wait).
    double queue_seconds = 0.0;
    /// Columns in the window that served this request (1 = unbatched).
    int batch_columns = 1;
    /// Completion stamp on the steady clock — set just before the future is
    /// fulfilled, so a client measures submit → completion latency without
    /// its own delay in collecting the future (perfbench's serve-batch-8).
    std::chrono::steady_clock::time_point completed_at;
  };

  /// Always-on aggregate counters (relaxed atomics; stats() snapshots).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    /// Executed windows and the columns they carried: columns/windows is the
    /// mean batch size, the direct evidence that window-merge happened.
    std::uint64_t windows = 0;
    std::uint64_t columns = 0;
    std::uint64_t max_window = 0;
    /// Preconditioner applications across all windows: block iterations for
    /// batched windows (one fused apply per block iteration, however many
    /// columns ride it) plus scalar iterations for singleton windows and
    /// per-column fallbacks. applies/completed is the per-solve apply cost
    /// batching amortizes.
    std::uint64_t precond_applies = 0;
  };

  /// The cache prepares and owns the sessions; it must outlive the service.
  SolveService(SessionCache& cache, ServiceConfig cfg = {});
  ~SolveService();  // shutdown(): drain admitted work, join workers
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Prepare (or fetch, via the cache) the session for (A, cfg, opts) and
  /// return the key submit() targets. Registering an operator the cache
  /// already holds reuses its session, and re-registering a session this
  /// service already queues for returns the SAME key — concurrent clients
  /// of one operator merge into one batching queue, which is the point.
  OperatorKey register_operator(const la::CsrMatrix& A,
                                const HybridConfig& cfg,
                                const AlgebraicOptions& opts = {});
  /// Mesh-keyed form of the same.
  OperatorKey register_operator(const mesh::Mesh& m,
                                const fem::PoissonProblem& prob,
                                const HybridConfig& cfg);

  /// Enqueue one right-hand side (moved in) for `op`, waiting for queue
  /// space if the operator's queue is full. Returns a future that completes
  /// when its window has been solved, or nullopt when shutdown() wakes a
  /// submit that was waiting for space (counted in Stats::rejected). Throws
  /// ContractError for unknown keys, a mis-sized rhs, or submit after
  /// shutdown().
  std::optional<std::future<Reply>> submit(OperatorKey op,
                                           std::vector<double> rhs);

  /// Stop admitting, execute every already-admitted request, join the
  /// workers. Idempotent; called by the destructor.
  void shutdown();

  /// Suspend window formation: admitted requests queue up but no worker
  /// claims any until resume(). Lets tests (and maintenance windows) compose
  /// batches deterministically; pausing never rejects admission.
  void pause();
  void resume();

  Stats stats() const;

 private:
  struct Request {
    std::vector<double> rhs;
    std::promise<Reply> promise;
    /// Admission time, stamped under mu_ as the request joins its queue.
    std::chrono::steady_clock::time_point enqueued;
  };

  struct OperatorState {
    std::shared_ptr<SolverSession> session;
    std::deque<Request> queue;
  };

  OperatorKey key_for_session(std::shared_ptr<SolverSession> session);
  /// Counts one refused submit (a waiting submit woken by shutdown()) in
  /// stats(), the registry and the trace.
  std::nullopt_t reject();
  void worker_loop();
  /// Pops the claiming worker's share of the queue whose front request is
  /// oldest, under mu_; nullopt when every queue is empty.
  std::optional<std::pair<std::size_t, std::vector<Request>>> claim_window();
  void execute_window(OperatorState& op, std::vector<Request> batch);

  SessionCache& cache_;
  const ServiceConfig cfg_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / shutdown
  std::condition_variable space_cv_;  // waiting submitters: space freed
  std::vector<std::unique_ptr<OperatorState>> operators_;
  bool stopping_ = false;
  bool paused_ = false;
  std::size_t queued_ = 0;  // across all operators

  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> columns_{0};
  std::atomic<std::uint64_t> max_window_{0};
  std::atomic<std::uint64_t> precond_applies_{0};
};

}  // namespace ddmgnn::core
