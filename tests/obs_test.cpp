// Telemetry-layer tests: exactness of the lock-free metrics primitives under
// concurrency, histogram quantiles on known distributions, span
// nesting/ordering through the Chrome trace writer, the disabled-mode
// overhead guard, convergence forensics (classify_failure), and the
// cross-layer invariant that SolveResult::precond_seconds reconciles with
// the precond.apply / precond.apply_many span durations on the scalar,
// block, and stationary driver paths.
//
// The obs flags and registry are process-global; every test that flips a
// flag restores the all-off default before returning (gtest runs tests
// sequentially in one process).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "mesh/generator.hpp"
#include "obs/flags.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/krylov.hpp"
#include "solver/stationary.hpp"

namespace {

using namespace ddmgnn;

/// Restore the default all-off flag state (and drop buffered trace events)
/// no matter how a test exits.
struct ObsFlagGuard {
  ~ObsFlagGuard() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
};

struct SmallProblem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

SmallProblem small_problem(std::uint64_t seed = 42, la::Index nodes = 700) {
  mesh::Mesh m =
      mesh::generate_mesh_target_nodes(mesh::random_domain(seed), nodes, seed);
  const auto q = fem::sample_quadratic_data(seed);
  auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Sum of the durations of all precond.apply / precond.apply_many spans in
/// the recorder, in seconds.
double traced_precond_seconds() {
  double total = 0.0;
  for (const obs::TraceEvent& e : obs::TraceRecorder::instance().snapshot()) {
    const std::string name = e.name;
    if (name == "precond.apply" || name == "precond.apply_many") {
      total += static_cast<double>(e.dur_ns) * 1e-9;
    }
  }
  return total;
}

// ---------------------------------------------------------------- metrics --

TEST(ObsMetrics, ConcurrentCounterExactSum) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncs; ++i) c.inc();
      c.inc(5);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * (kIncs + 5));
}

TEST(ObsMetrics, ConcurrentHistogramExactSums) {
  // Integer-valued doubles sum exactly (well below 2^53), so the totals must
  // come out bit-exact even with 8 writers racing.
  obs::Histogram h({1.0, 2.0, 5.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kObs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kObs; ++i) {
        h.observe(static_cast<double>(i % 12));  // spills into overflow too
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kObs);
  // Per thread: kObs/12 full cycles of 0+1+...+11 = 66, plus remainder
  // 0..(kObs%12 - 1).
  const long long cycles = kObs / 12;
  long long per_thread = cycles * 66;
  for (int i = 0; i < kObs % 12; ++i) per_thread += i;
  EXPECT_EQ(h.sum(), static_cast<double>(kThreads * per_thread));
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 11.0);
  // Bucket partition covers every observation exactly once.
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsMetrics, HistogramQuantilesKnownDistribution) {
  obs::Histogram h({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  // Uniform on (0, 10]: 1000 evenly spaced observations.
  for (int k = 1; k <= 1000; ++k) h.observe(k * 0.01);
  // Linear interpolation inside unit-width buckets of a uniform sample is
  // accurate to well under one bucket width.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 0.2);
  EXPECT_NEAR(h.quantile(0.25), 2.5, 0.2);
  // Quantiles clamp to the observed range at the extremes.
  EXPECT_EQ(h.quantile(0.0), h.min());
  EXPECT_EQ(h.quantile(1.0), h.max());

  obs::Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  obs::Histogram single({1.0, 2.0, 4.0});
  single.observe(3.0);
  // One observation: every quantile is that observation (clamping).
  EXPECT_EQ(single.quantile(0.01), 3.0);
  EXPECT_EQ(single.quantile(0.99), 3.0);
}

TEST(ObsMetrics, RegistryIdentityAndKindSafety) {
  auto& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("obs_test.ids_total");
  obs::Counter& b = reg.counter("obs_test.ids_total");
  EXPECT_EQ(&a, &b);  // find-or-create returns the same instrument
  obs::Counter& labeled = reg.counter("obs_test.ids_total", "kind=x");
  EXPECT_NE(&a, &labeled);  // labels are part of the identity
  // A name registered as one kind cannot be re-requested as another.
  EXPECT_THROW((void)reg.gauge("obs_test.ids_total"), std::logic_error);
}

// ------------------------------------------------------------------ spans --

TEST(ObsTrace, SpanNestingOrderingRoundTrip) {
  ObsFlagGuard guard;
  obs::TraceRecorder::instance().clear();
  obs::set_trace_enabled(true);
  {
    obs::Span outer("obs_test.outer");
    outer.arg("answer", 42.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      obs::Span inner("obs_test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    obs::instant("obs_test.marker", "bytes", 128.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::set_trace_enabled(false);

  const auto events = obs::TraceRecorder::instance().snapshot();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* marker = nullptr;
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name == "obs_test.outer") outer = &e;
    if (name == "obs_test.inner") inner = &e;
    if (name == "obs_test.marker") marker = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(marker, nullptr);
  // Same thread track; the child's interval nests strictly inside the
  // parent's (Chrome infers the hierarchy from exactly this containment).
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
  EXPECT_GT(inner->dur_ns, 0);
  EXPECT_GT(outer->dur_ns, inner->dur_ns);
  // Instants carry no duration; args round-trip.
  EXPECT_LT(marker->dur_ns, 0);
  ASSERT_NE(outer->arg_key1, nullptr);
  EXPECT_EQ(std::string(outer->arg_key1), "answer");
  EXPECT_EQ(outer->arg_val1, 42.0);

  // Chrome JSON: parent sorts before child (ts ascending, longer first at
  // ties), instants emit "i" events, and args appear as objects.
  const std::string json = obs::TraceRecorder::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  const auto outer_pos = json.find("\"obs_test.outer\"");
  const auto inner_pos = json.find("\"obs_test.inner\"");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
}

TEST(ObsTrace, DisabledModeOverheadGuard) {
  // All flags off (the default): an OBS_SPAN must cost a relaxed load and
  // nothing else. The bound is generous — a clock read alone would blow it.
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  obs::TraceRecorder::instance().clear();
  constexpr int kIters = 1000000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_SPAN("obs_test.disabled");
  }
  const auto end = std::chrono::steady_clock::now();
  const double ns_per_op =
      std::chrono::duration<double, std::nano>(end - start).count() / kIters;
  EXPECT_LT(ns_per_op, 500.0) << "disabled span cost " << ns_per_op << " ns";
  // ... and record nothing.
  for (const obs::TraceEvent& e : obs::TraceRecorder::instance().snapshot()) {
    EXPECT_STRNE(e.name, "obs_test.disabled");
  }
}

// -------------------------------------------------------------- forensics --

TEST(ObsForensics, ClassifyFailureReasons) {
  solver::SolveOptions opts;
  opts.max_iterations = 100;

  solver::SolveResult res;
  res.converged = true;
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kNone);

  res.converged = false;
  res.final_relative_residual = std::nan("");
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kNan);

  res.final_relative_residual = 1e8;  // > 10x the initial rel residual
  res.history = {1.0, 10.0, 1e8};
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kDiverged);

  // Trailing-window stagnation: <1% progress over the last 10 iterations.
  res.final_relative_residual = 0.5;
  res.history.assign(30, 0.5);
  res.history.front() = 1.0;
  res.iterations = 30;
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kStagnated);

  // Steady progress that runs out of budget is max-iterations, not
  // stagnation.
  res.history.clear();
  double r = 1.0;
  for (int i = 0; i < 100; ++i) res.history.push_back(r *= 0.9);
  res.final_relative_residual = res.history.back();
  res.iterations = 100;
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kMaxIterations);

  // No history at all: budget exhaustion is the only claim we can make.
  res.history.clear();
  res.iterations = 40;
  res.final_relative_residual = 0.7;
  EXPECT_EQ(classify_failure(res, opts), obs::FailureReason::kMaxIterations);
}

TEST(ObsForensics, UnconvergedSolveGetsReason) {
  auto [m, prob] = small_problem(11);
  core::HybridConfig cfg;
  cfg.preconditioner = "jacobi";  // slow on purpose
  cfg.rel_tol = 1e-12;
  cfg.max_iterations = 3;  // guaranteed unconverged
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  ASSERT_FALSE(res.converged);
  EXPECT_NE(res.failure, obs::FailureReason::kNone);
  EXPECT_EQ(res.failure, obs::FailureReason::kMaxIterations);
  EXPECT_FALSE(res.history.empty());

  // The reason does not depend on the residual history: a caller that
  // opted out of it (the serving configuration) gets the same answer.
  cfg.track_history = false;
  core::SolverSession served;
  served.setup(m, prob, cfg);
  std::fill(x.begin(), x.end(), 0.0);
  const auto res2 = served.solve(prob.b, x);
  ASSERT_FALSE(res2.converged);
  EXPECT_TRUE(res2.history.empty());
  EXPECT_EQ(res2.failure, obs::FailureReason::kMaxIterations);
}

// ----------------------------------------------- span/metric reconciliation --

TEST(ObsReconcile, ScalarSolvePrecondSecondsMatchSpans) {
  ObsFlagGuard guard;
  auto [m, prob] = small_problem(21);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.rel_tol = 1e-8;
  core::SolverSession session;
  session.setup(m, prob, cfg);

  obs::TraceRecorder::instance().clear();
  obs::set_trace_enabled(true);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = session.solve(prob.b, x);
  obs::set_trace_enabled(false);
  ASSERT_TRUE(res.converged);
  // PrecondScope feeds the accumulator and the span from ONE Timer reading,
  // so the reconciliation is exact up to 1ns truncation per span.
  const double span_total = traced_precond_seconds();
  EXPECT_NEAR(span_total, res.precond_seconds,
              1e-9 * (res.iterations + 1) + 1e-12);
  EXPECT_GT(span_total, 0.0);
}

TEST(ObsReconcile, BlockSolvePrecondSecondsMatchSpans) {
  ObsFlagGuard guard;
  auto [m, prob] = small_problem(22);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.rel_tol = 1e-8;
  core::SolverSession session;
  session.setup(m, prob, cfg);

  const std::size_t n = prob.b.size();
  std::vector<std::vector<double>> rhs;
  for (int j = 0; j < 4; ++j) rhs.push_back(random_vector(n, 100 + j));

  obs::TraceRecorder::instance().clear();
  obs::set_trace_enabled(true);
  std::vector<std::vector<double>> xs;
  const auto results = session.solve_many(rhs, xs);
  obs::set_trace_enabled(false);
  ASSERT_EQ(results.size(), rhs.size());
  double precond_total = 0.0;
  int total_events = 0;
  for (const auto& res : results) {
    EXPECT_TRUE(res.converged);
    precond_total += res.precond_seconds;
    total_events += res.iterations + 1;
  }
  // Per-column shares partition each apply_many measurement, so the column
  // sum reconciles with the span total.
  EXPECT_NEAR(traced_precond_seconds(), precond_total,
              1e-9 * total_events + precond_total * 1e-9 + 1e-12);
}

TEST(ObsReconcile, StationarySolvePrecondSecondsMatchSpans) {
  ObsFlagGuard guard;
  auto [m, prob] = small_problem(23);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  core::SolverSession session;
  session.setup(m, prob, cfg);

  solver::SolveOptions opts;
  opts.rel_tol = 1e-6;
  opts.max_iterations = 50;
  const double omega = solver::power_iteration_damping(
      prob.A, session.preconditioner(), 12, 5);

  obs::TraceRecorder::instance().clear();
  obs::set_trace_enabled(true);
  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = solver::stationary_iteration(
      prob.A, session.preconditioner(), prob.b, x, opts, omega);
  obs::set_trace_enabled(false);
  EXPECT_NEAR(traced_precond_seconds(), res.precond_seconds,
              1e-9 * (res.iterations + 1) + 1e-12);
}

// ------------------------------------------------------- session + cache --

TEST(ObsCache, HitMissCountersAndSolveMetrics) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  auto& reg = obs::Registry::instance();
  const auto counter_value = [&](const char* name) -> std::uint64_t {
    const obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  const std::uint64_t hits0 = counter_value("cache.hits_total");
  const std::uint64_t misses0 = counter_value("cache.misses_total");
  const obs::Counter* solves_before = reg.find_counter("solver.solves_total");
  const std::uint64_t solves0 =
      solves_before != nullptr ? solves_before->value() : 0;

  auto [m, prob] = small_problem(31);
  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  core::SessionCache cache(/*byte_budget=*/1u << 30);
  auto s1 = cache.get_or_setup(m, prob, cfg);  // cold: miss
  auto s2 = cache.get_or_setup(m, prob, cfg);  // warm: hit
  EXPECT_EQ(counter_value("cache.misses_total"), misses0 + 1);
  EXPECT_EQ(counter_value("cache.hits_total"), hits0 + 1);

  std::vector<double> x(prob.b.size(), 0.0);
  const auto res = s2->solve(prob.b, x);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(counter_value("solver.solves_total"), solves0 + 1);
  // The session setup ran with metrics on, so the apply-phase gauges fired
  // during the solve and dominant_phase names one of them.
  double seconds = 0.0;
  const std::string phase = obs::dominant_phase(&seconds);
  EXPECT_FALSE(phase.empty());
  EXPECT_GT(seconds, 0.0);
}

}  // namespace
