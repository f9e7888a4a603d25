// SolveService behavior: batched windows return bitwise what the direct
// session paths return for the same window composition, idle workers share
// a due window and its rest runs at once, a full queue makes
// submit wait for space and a submit refused at shutdown counts as a
// rejection, shutdown drains every admitted future, a session solve started
// from a converged solution finishes at once, and a multi-producer stress
// run (the TSan CI target) completes every request exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solve_service.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace ddmgnn;
using namespace std::chrono_literals;
using la::Index;

la::CsrMatrix grid_laplacian(Index side, double shift) {
  const Index n = side * side;
  la::CooBuilder coo(n, n);
  for (Index r = 0; r < side; ++r) {
    for (Index c = 0; c < side; ++c) {
      const Index i = r * side + c;
      coo.add(i, i, 4.0 + shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

core::HybridConfig lu_config() {
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 200;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;
  return cfg;
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

/// A paused service admits without executing, so tests compose windows
/// deterministically: submit exactly the batch, then resume.
core::ServiceConfig paused_friendly(int max_batch,
                                    std::chrono::microseconds max_wait) {
  core::ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = max_batch;
  cfg.max_wait = max_wait;
  return cfg;
}

// One worker runs each due window whole, so the paused queue of s merges
// into one window (two idle workers would share it; see
// IdleWorkersShareADueWindow).
TEST(SolveServiceWindow, BatchedWindowBitwiseEqualsDirectSolveMany) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  for (const int s : {2, 3, 5}) {
    core::ServiceConfig scfg = paused_friendly(/*max_batch=*/8, 50ms);
    scfg.num_workers = 1;
    core::SolveService svc(cache, scfg);
    const auto op = svc.register_operator(A, cfg);
    svc.pause();
    std::vector<std::vector<double>> bs;
    std::vector<std::future<core::SolveService::Reply>> futs;
    for (int i = 0; i < s; ++i) {
      bs.push_back(random_rhs(static_cast<std::size_t>(A.rows()),
                              100 + 7 * static_cast<std::uint64_t>(i)));
      auto fut = svc.submit(op, bs.back());
      ASSERT_TRUE(fut.has_value());
      futs.push_back(std::move(*fut));
    }
    svc.resume();

    // The same batch through the direct session path, same column order.
    std::vector<std::vector<double>> xs_direct;
    const auto res_direct = direct->solve_many(bs, xs_direct);

    for (int i = 0; i < s; ++i) {
      const auto reply = futs[static_cast<std::size_t>(i)].get();
      EXPECT_TRUE(reply.result.converged);
      EXPECT_EQ(reply.batch_columns, s) << "window did not merge all " << s;
      EXPECT_EQ(reply.result.iterations,
                res_direct[static_cast<std::size_t>(i)].iterations);
      ASSERT_EQ(reply.x.size(), xs_direct[static_cast<std::size_t>(i)].size());
      for (std::size_t j = 0; j < reply.x.size(); ++j) {
        // Bitwise: the window executes the identical solve_many call.
        EXPECT_EQ(reply.x[j], xs_direct[static_cast<std::size_t>(i)][j])
            << "s=" << s << " col=" << i << " row=" << j;
      }
    }
  }
}

// Two idle workers share a due window of six: the claiming worker takes the
// front ceil(6 / 2) = 3, and the rest is due at once for its peer instead of
// waiting out max_wait (1 h here). Forced block FPCG makes each window's
// composition show in its bits, so every reply must equal a direct
// solve_many over exactly the FIFO segment its batch_columns names.
TEST(SolveServiceWindow, IdleWorkersShareADueWindow) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  core::HybridConfig cfg = lu_config();
  cfg.method = solver::KrylovMethod::kFpcg;
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  constexpr int kRequests = 6;
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/kRequests, 1h));
  const auto op = svc.register_operator(A, cfg);
  svc.pause();
  std::vector<std::vector<double>> bs;
  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < kRequests; ++i) {
    bs.push_back(random_rhs(static_cast<std::size_t>(A.rows()),
                            300 + 11 * static_cast<std::uint64_t>(i)));
    auto fut = svc.submit(op, bs.back());
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  svc.resume();

  std::vector<core::SolveService::Reply> replies;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(60s), std::future_status::ready)
        << "the rest of a closed window waited for max_wait";
    replies.push_back(f.get());
  }
  EXPECT_EQ(replies.front().batch_columns, 3);

  // Windows are claimed from the queue's front, so they are FIFO segments.
  for (std::size_t begin = 0; begin < replies.size();) {
    const auto width = static_cast<std::size_t>(replies[begin].batch_columns);
    ASSERT_GE(width, 1u);
    ASSERT_LE(begin + width, replies.size());
    const std::vector<std::vector<double>> segment(
        bs.begin() + static_cast<std::ptrdiff_t>(begin),
        bs.begin() + static_cast<std::ptrdiff_t>(begin + width));
    std::vector<std::vector<double>> xs_direct;
    const auto res_direct = direct->solve_many(segment, xs_direct);
    for (std::size_t c = 0; c < width; ++c) {
      const auto& reply = replies[begin + c];
      EXPECT_EQ(reply.batch_columns, static_cast<int>(width));
      EXPECT_TRUE(reply.result.converged);
      EXPECT_EQ(reply.result.iterations, res_direct[c].iterations);
      ASSERT_EQ(reply.x.size(), xs_direct[c].size());
      for (std::size_t j = 0; j < reply.x.size(); ++j) {
        EXPECT_EQ(reply.x[j], xs_direct[c][j])
            << "request=" << begin + c << " row=" << j;
      }
    }
    begin += width;
  }
}

TEST(SolveServiceWindow, SingletonWindowBitwiseEqualsDirectSolve) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  core::SolveService svc(cache, paused_friendly(/*max_batch=*/1, 1ms));
  const auto op = svc.register_operator(A, cfg);
  const auto b = random_rhs(static_cast<std::size_t>(A.rows()), 42);
  auto fut = svc.submit(op, b);
  ASSERT_TRUE(fut.has_value());
  const auto reply = fut->get();
  EXPECT_EQ(reply.batch_columns, 1);

  std::vector<double> x_direct(b.size(), 0.0);
  const auto res_direct = direct->solve(b, x_direct);
  EXPECT_TRUE(reply.result.converged);
  EXPECT_EQ(reply.result.iterations, res_direct.iterations);
  for (std::size_t j = 0; j < b.size(); ++j) {
    EXPECT_EQ(reply.x[j], x_direct[j]) << j;
  }
}

TEST(SolveServiceWindow, LockstepBatchBitwiseEqualsScalarSolves) {
  // ddm-lu runs PCG → block_pcg, whose lockstep recurrence reproduces the
  // scalar solve bit-for-bit per column: EVERY window composition of this
  // preconditioner therefore equals direct per-request solves exactly.
  const la::CsrMatrix A = grid_laplacian(20, 0.5);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  core::SolveService svc(cache, paused_friendly(/*max_batch=*/4, 50ms));
  const auto op = svc.register_operator(A, cfg);
  svc.pause();
  std::vector<std::vector<double>> bs;
  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 4; ++i) {
    bs.push_back(random_rhs(static_cast<std::size_t>(A.rows()),
                            500 + static_cast<std::uint64_t>(i)));
    auto fut = svc.submit(op, bs.back());
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  svc.resume();
  for (int i = 0; i < 4; ++i) {
    const auto reply = futs[static_cast<std::size_t>(i)].get();
    std::vector<double> x_direct(bs[static_cast<std::size_t>(i)].size(), 0.0);
    const auto res = direct->solve(bs[static_cast<std::size_t>(i)], x_direct);
    EXPECT_TRUE(reply.result.converged);
    EXPECT_EQ(reply.result.iterations, res.iterations);
    for (std::size_t j = 0; j < x_direct.size(); ++j) {
      EXPECT_EQ(reply.x[j], x_direct[j]) << "col=" << i << " row=" << j;
    }
  }
}

TEST(SolveServiceBackpressure, FullQueueSubmitWaitsForSpace) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/2, 50ms);
  scfg.queue_capacity = 2;
  core::SolveService svc(cache, scfg);
  const auto op = svc.register_operator(A, cfg);
  svc.pause();

  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 2; ++i) {
    auto fut = svc.submit(op, random_rhs(static_cast<std::size_t>(A.rows()),
                                         static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }
  // The third submission must block until the paused service resumes and a
  // worker frees queue space.
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    auto fut = svc.submit(
        op, random_rhs(static_cast<std::size_t>(A.rows()), 77));
    ASSERT_TRUE(fut.has_value());
    admitted.store(true);
    EXPECT_TRUE(fut->get().result.converged);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(admitted.load()) << "submit returned before space existed";
  svc.resume();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto& f : futs) EXPECT_TRUE(f.get().result.converged);
  EXPECT_EQ(svc.stats().completed, 3u);
  EXPECT_EQ(svc.stats().rejected, 0u);
}

// A submit still blocked for space when shutdown() runs is refused, and it
// counts as a rejection in stats() and in the registry alike.
TEST(SolveServiceBackpressure, BlockedSubmitAtShutdownCountsAsRejection) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/2, 50ms);
  scfg.queue_capacity = 2;
  core::SolveService svc(cache, scfg);
  const auto op = svc.register_operator(A, cfg);
  svc.pause();
  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 2; ++i) {
    auto fut = svc.submit(op, random_rhs(static_cast<std::size_t>(A.rows()),
                                         static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(fut.has_value());
    futs.push_back(std::move(*fut));
  }

  obs::set_metrics_enabled(true);
  const obs::Counter& rejected_total =
      obs::Registry::instance().counter("service.rejected_total");
  const std::uint64_t rejected0 = rejected_total.value();
  // The thread must be inside submit() before shutdown(): a submit that
  // starts after it throws instead of blocking.
  std::vector<double> rhs = random_rhs(static_cast<std::size_t>(A.rows()), 77);
  std::atomic<bool> started{false};
  std::atomic<bool> returned{false};
  bool refused = false;
  std::thread blocked([&] {
    started.store(true);
    refused = !svc.submit(op, std::move(rhs)).has_value();
    returned.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load()) << "submit returned before shutdown";
  svc.shutdown();
  blocked.join();
  const std::uint64_t rejected_delta = rejected_total.value() - rejected0;
  obs::set_metrics_enabled(false);

  EXPECT_TRUE(refused);
  EXPECT_EQ(svc.stats().rejected, 1u);
  EXPECT_EQ(rejected_delta, 1u);
  for (auto& f : futs) EXPECT_TRUE(f.get().result.converged);
}

TEST(SolveServiceShutdown, DrainCompletesEveryAdmittedFuture) {
  const la::CsrMatrix A = grid_laplacian(20, 0.0);
  const la::CsrMatrix B = grid_laplacian(18, 1.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  std::vector<std::future<core::SolveService::Reply>> futs;
  {
    core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 1h));
    const auto opA = svc.register_operator(A, cfg);
    const auto opB = svc.register_operator(B, cfg);
    svc.pause();
    for (int i = 0; i < 10; ++i) {
      const bool useA = (i % 2) == 0;
      auto fut = svc.submit(
          useA ? opA : opB,
          random_rhs(static_cast<std::size_t>((useA ? A : B).rows()),
                     static_cast<std::uint64_t>(i)));
      ASSERT_TRUE(fut.has_value());
      futs.push_back(std::move(*fut));
    }
    // Destruction drains: paused, with a 1-hour window wait, every window
    // would otherwise still be open.
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready)
        << "shutdown abandoned an admitted future";
    EXPECT_TRUE(f.get().result.converged);
  }
}

TEST(SolveServiceWarmStart, ConvergedGuessFinishesImmediately) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto session = cache.get_or_setup(A, cfg);
  const auto b = random_rhs(static_cast<std::size_t>(A.rows()), 7);

  std::vector<double> x(b.size(), 0.0);
  const auto cold = session->solve(b, x);
  ASSERT_TRUE(cold.converged);
  ASSERT_GT(cold.iterations, 2);

  // `x` is solve()'s initial guess: started from the converged solution,
  // (near-)nothing is left to do.
  std::vector<double> x_warm = x;
  const auto warm = session->solve(b, x_warm);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

TEST(SolveServiceContract, BadSubmitsThrowAndShutdownRefuses) {
  const la::CsrMatrix A = grid_laplacian(12, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto svc = std::make_unique<core::SolveService>(
      cache, paused_friendly(/*max_batch=*/2, 1ms));
  const auto op = svc->register_operator(A, cfg);
  EXPECT_THROW(svc->submit(op, std::vector<double>(3, 0.0)), ContractError);
  EXPECT_THROW(svc->submit(op + 1, std::vector<double>(
                                       static_cast<std::size_t>(A.rows()))),
               ContractError);
  svc->shutdown();
  EXPECT_THROW(svc->submit(op, std::vector<double>(
                                   static_cast<std::size_t>(A.rows()), 1.0)),
               ContractError);
}

// The CI TSan target: multi-producer, two operators, a queue cap below the
// producer count (so concurrent submits can wait for space), every future
// harvested. Correctness assertions are deliberately light — the run exists
// to put admission, window formation, execution and completion under real
// cross-thread contention.
TEST(SolveServiceStress, ManyProducersCompleteEveryRequest) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const la::CsrMatrix B = grid_laplacian(14, 0.5);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg;
  scfg.num_workers = 2;
  scfg.max_batch = 4;
  scfg.max_wait = std::chrono::microseconds(300);
  scfg.queue_capacity = 2;
  core::SolveService svc(cache, scfg);
  const auto opA = svc.register_operator(A, cfg);
  const auto opB = svc.register_operator(B, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  std::atomic<long> completed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        const bool useA = rng.uniform() < 0.5;
        const auto& M = useA ? A : B;
        auto fut = svc.submit(useA ? opA : opB,
                              random_rhs(static_cast<std::size_t>(M.rows()),
                                         rng()));
        ASSERT_TRUE(fut.has_value());
        const auto reply = fut->get();
        EXPECT_TRUE(reply.result.converged);
        EXPECT_GE(reply.batch_columns, 1);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto st = svc.stats();
  EXPECT_EQ(completed.load(), kProducers * kPerProducer);
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.columns, st.completed);
  EXPECT_GE(st.windows, 1u);
}

}  // namespace
