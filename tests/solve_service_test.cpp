// SolveService behavior: batched windows return bitwise what the direct
// session paths return for the same window composition, backpressure honors
// the queue cap under both admission policies and counts every refused
// submit as a rejection, QoS deadlines shrink windows,
// shutdown drains every admitted future, warm starts converge immediately,
// and a multi-producer stress run (the TSan CI target) completes every
// request exactly once.
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

TEST(SolveServiceWindow, BatchedWindowBitwiseEqualsDirectSolveMany) {
  const la::CsrMatrix A = grid_laplacian(24, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  auto direct = cache.get_or_setup(A, cfg);

  for (const int s : {2, 3, 5}) {
    core::SolveService svc(cache, paused_friendly(/*max_batch=*/8, 50ms));
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

TEST(SolveServiceBackpressure, RejectPolicyBouncesAtCapacity) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/8, 50ms);
  scfg.queue_capacity = 4;
  core::SolveService svc(cache, scfg);
  const auto op = svc.register_operator(A, cfg);
  svc.pause();

  core::SubmitOptions reject;
  reject.on_full = core::AdmissionPolicy::kReject;
  std::vector<std::future<core::SolveService::Reply>> futs;
  for (int i = 0; i < 4; ++i) {
    auto fut = svc.submit(op,
                          random_rhs(static_cast<std::size_t>(A.rows()),
                                     static_cast<std::uint64_t>(i)),
                          reject);
    ASSERT_TRUE(fut.has_value()) << i;
    futs.push_back(std::move(*fut));
  }
  EXPECT_EQ(svc.queue_depth(), 4u);
  // Queue full: the 5th submission bounces instead of blocking.
  auto overflow = svc.submit(
      op, random_rhs(static_cast<std::size_t>(A.rows()), 99), reject);
  EXPECT_FALSE(overflow.has_value());
  EXPECT_EQ(svc.stats().rejected, 1u);

  svc.resume();
  for (auto& f : futs) EXPECT_TRUE(f.get().result.converged);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
}

TEST(SolveServiceBackpressure, BlockPolicyWaitsForSpace) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg = paused_friendly(/*max_batch=*/2, 50ms);
  scfg.queue_capacity = 2;
  scfg.on_full = core::AdmissionPolicy::kBlock;
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
  scfg.on_full = core::AdmissionPolicy::kBlock;
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

TEST(SolveServiceQoS, EffectiveWindowWaitShrinksWithDeadline) {
  using std::chrono::microseconds;
  // No deadline → the full window wait.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(0)),
            microseconds(2000));
  // A generous deadline changes nothing.
  EXPECT_EQ(
      core::effective_window_wait(microseconds(2000), microseconds(100000)),
      microseconds(2000));
  // A tight deadline caps the wait at half its budget.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(500)),
            microseconds(250));
  // An immediate deadline closes the window at once.
  EXPECT_EQ(core::effective_window_wait(microseconds(2000), microseconds(1)),
            microseconds(0));
}

TEST(SolveServiceQoS, DeadlineClosesWindowEarly) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  // Without a deadline a lone request would sit the full 10 s window wait.
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/16, 10s));
  const auto op = svc.register_operator(A, cfg);

  core::SubmitOptions qos;
  qos.deadline = 10ms;
  auto fut = svc.submit(
      op, random_rhs(static_cast<std::size_t>(A.rows()), 5), qos);
  ASSERT_TRUE(fut.has_value());
  // The deadline must close (and solve) the window orders of magnitude
  // before the configured max_wait.
  ASSERT_EQ(fut->wait_for(5s), std::future_status::ready);
  const auto reply = fut->get();
  EXPECT_TRUE(reply.result.converged);
  EXPECT_EQ(reply.batch_columns, 1);
  EXPECT_LT(reply.queue_seconds, 1.0);
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

  // Session-level warm start: seeding with the converged solution leaves
  // (near-)nothing to do.
  std::vector<double> x_warm(b.size(), 0.0);
  const auto warm = session->solve(b, x_warm, x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);

  // solve_many warm start, mixed seeded/unseeded columns.
  const auto b2 = random_rhs(static_cast<std::size_t>(A.rows()), 8);
  std::vector<std::vector<double>> bs{b, b2};
  std::vector<std::vector<double>> x0s{x, {}};
  std::vector<std::vector<double>> xs;
  const auto many = session->solve_many(bs, xs, x0s);
  EXPECT_TRUE(many[0].converged);
  EXPECT_LE(many[0].iterations, 2);
  EXPECT_TRUE(many[1].converged);

  // Service-level warm start rides the same plumbing.
  core::SolveService svc(cache, paused_friendly(/*max_batch=*/4, 1ms));
  const auto op = svc.register_operator(A, cfg);
  core::SubmitOptions qos;
  qos.x0 = x;
  auto fut = svc.submit(op, b, qos);
  ASSERT_TRUE(fut.has_value());
  const auto reply = fut->get();
  EXPECT_TRUE(reply.result.converged);
  EXPECT_LE(reply.result.iterations, 2);
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
  core::SubmitOptions bad_seed;
  const std::vector<double> tiny(2, 0.0);
  bad_seed.x0 = tiny;
  EXPECT_THROW(svc->submit(op,
                           std::vector<double>(
                               static_cast<std::size_t>(A.rows()), 1.0),
                           bad_seed),
               ContractError);
  svc->shutdown();
  EXPECT_THROW(svc->submit(op, std::vector<double>(
                                   static_cast<std::size_t>(A.rows()), 1.0)),
               ContractError);
}

// The CI TSan target: multi-producer, two operators, mixed QoS and warm
// starts, every future harvested. Correctness assertions are deliberately
// light — the run exists to put admission, window formation, execution and
// completion under real cross-thread contention.
TEST(SolveServiceStress, ManyProducersCompleteEveryRequest) {
  const la::CsrMatrix A = grid_laplacian(16, 0.0);
  const la::CsrMatrix B = grid_laplacian(14, 0.5);
  const core::HybridConfig cfg = lu_config();
  core::SessionCache cache(1u << 30);
  core::ServiceConfig scfg;
  scfg.num_workers = 2;
  scfg.max_batch = 4;
  scfg.max_wait = std::chrono::microseconds(300);
  scfg.queue_capacity = 16;
  core::SolveService svc(cache, scfg);
  const auto opA = svc.register_operator(A, cfg);
  const auto opB = svc.register_operator(B, cfg);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 12;
  std::atomic<long> completed{0};
  std::atomic<long> rejected{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerProducer; ++i) {
        const bool useA = rng.uniform() < 0.5;
        const auto& M = useA ? A : B;
        core::SubmitOptions qos;
        if (i % 3 == 0) qos.deadline = std::chrono::microseconds(200);
        if (i % 4 == 3) qos.on_full = core::AdmissionPolicy::kReject;
        auto fut = svc.submit(useA ? opA : opB,
                              random_rhs(static_cast<std::size_t>(M.rows()),
                                         rng()),
                              qos);
        if (!fut.has_value()) {
          rejected.fetch_add(1);
          continue;
        }
        const auto reply = fut->get();
        EXPECT_TRUE(reply.result.converged);
        EXPECT_GE(reply.batch_columns, 1);
        completed.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto st = svc.stats();
  EXPECT_EQ(completed.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(completed.load()));
  EXPECT_EQ(st.rejected, static_cast<std::uint64_t>(rejected.load()));
  EXPECT_EQ(st.columns, st.completed);
  EXPECT_GE(st.windows, 1u);
}

}  // namespace
