#include "solver/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/vector_ops.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/telemetry.hpp"

namespace ddmgnn::solver {

namespace {

using la::axpy;
using la::dot;
using la::norm2;
using la::xpay;

void check_dims(const CsrMatrix& a, std::span<const double> b,
                std::span<double> x) {
  DDMGNN_CHECK(a.rows() == a.cols(), "krylov: square matrix required");
  DDMGNN_CHECK(b.size() == static_cast<std::size_t>(a.rows()) &&
                   x.size() == b.size(),
               "krylov: dimension mismatch");
}

/// "<method>+<preconditioner>" — the one format every SolveResult::method
/// string follows (plain CG has no preconditioner and stays bare "cg").
std::string method_label(KrylovMethod method,
                         const precond::Preconditioner& m) {
  return std::string(krylov_method_name(method)) + "+" + m.name();
}

}  // namespace

const char* krylov_method_name(KrylovMethod method) {
  switch (method) {
    case KrylovMethod::kCg: return "cg";
    case KrylovMethod::kPcg: return "pcg";
    case KrylovMethod::kFpcg: return "fpcg";
  }
  return "?";
}

std::optional<KrylovMethod> krylov_method_from_name(std::string_view name) {
  for (const KrylovMethod m :
       {KrylovMethod::kCg, KrylovMethod::kPcg, KrylovMethod::kFpcg}) {
    if (name == krylov_method_name(m)) return m;
  }
  return std::nullopt;
}

obs::FailureReason classify_failure(const SolveResult& res,
                                    const SolveOptions& opts) {
  using obs::FailureReason;
  if (res.converged) return FailureReason::kNone;
  const double fr = res.final_relative_residual;
  if (!std::isfinite(fr)) return FailureReason::kNan;
  const double initial = res.history.empty() ? 1.0 : res.history.front();
  if (fr > 10.0 * std::max(initial, 1.0)) return FailureReason::kDiverged;
  // Stagnation: <1% improvement over the trailing 10 recorded iterations.
  constexpr std::size_t kWindow = 10;
  if (res.history.size() > kWindow) {
    const double then = res.history[res.history.size() - 1 - kWindow];
    const double now = res.history.back();
    if (then > 0.0 && now / then > 0.99) return FailureReason::kStagnated;
  }
  if (res.iterations >= opts.max_iterations) {
    return FailureReason::kMaxIterations;
  }
  // Stopped below the iteration budget without converging: progress
  // stopped, which is stagnation in all but name.
  return res.history.empty() ? FailureReason::kMaxIterations
                             : FailureReason::kStagnated;
}

void finalize_solve_telemetry(SolveResult& res, const SolveOptions& opts) {
  if (res.converged) {
    res.failure = obs::FailureReason::kNone;
  } else if (res.failure == obs::FailureReason::kNone) {
    res.failure = classify_failure(res, opts);
  }
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::Registry::instance();
  static obs::Counter& solves = reg.counter("solver.solves_total");
  static obs::Gauge& solve_s = reg.gauge("solver.solve_seconds_total");
  static obs::Gauge& precond_s = reg.gauge("solver.precond_seconds_total");
  static obs::Histogram& iters = reg.histogram(
      "solver.iterations", {},
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  solves.inc();
  solve_s.add(res.total_seconds);
  precond_s.add(res.precond_seconds);
  iters.observe(static_cast<double>(res.iterations));
  if (!res.converged) {
    reg.counter("solver.failures_total",
                "method=" + res.method + ",reason=" +
                    obs::failure_reason_name(res.failure))
        .inc();
  }
}

namespace {

/// Algorithm 1 under the given SolveResult::method label: the body of pcg,
/// and of conjugate_gradient over the identity preconditioner.
SolveResult pcg_labelled(const CsrMatrix& a, const precond::Preconditioner& m,
                         std::span<const double> b, std::span<double> x,
                         const SolveOptions& opts, std::string label) {
  check_dims(a, b, x);
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = std::move(label);
  const std::size_t n = b.size();
  // One preconditioner workspace per solve: applies stay allocation-free in
  // steady state and concurrent solves on one shared M never share scratch.
  const auto ws = m.make_workspace();
  std::vector<double> r(n), z(n), p(n), q(n);
  std::vector<double> r32;  // fp32-rounded residual (opts.precond_fp32)
  if (opts.precond_fp32) r32.resize(n);
  auto apply_m = [&](std::span<const double> in, std::span<double> out) {
    PrecondScope t(precond_time);
    if (opts.precond_fp32) {
      la::round_to_float(in, r32);
      m.apply(r32, out, ws.get());
      la::round_to_float(out, out);
    } else {
      m.apply(in, out, ws.get());
    }
  };
  // r0 = b - A x0, z0 = M⁻¹ r0, p0 = z0   (Algorithm 1)
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  apply_m(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  const double nb = norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);
  double rho = dot(r, z);
  double rnorm = norm2(r);
  if (opts.track_history) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
  int it = 0;
  while (rnorm > stop && it < opts.max_iterations) {
    obs::Span iter_span("pcg.iter");
    a.multiply(p, q);
    const double alpha = rho / dot(p, q);
    axpy(alpha, p, x);
    axpy(-alpha, q, r);
    rnorm = norm2(r);
    ++it;
    if (opts.track_history) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    iter_span.arg("iter", it);
    iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
    if (rnorm <= stop) break;
    apply_m(r, z);
    const double rho_next = dot(r, z);
    const double beta = rho_next / rho;
    xpay(z, beta, p);
    rho = rho_next;
  }
  res.iterations = it;
  res.converged = rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  finalize_solve_telemetry(res, opts);
  return res;
}

}  // namespace

SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               std::span<double> x, const SolveOptions& opts) {
  static const precond::IdentityPreconditioner identity;
  return pcg_labelled(a, identity, b, x, opts,
                      krylov_method_name(KrylovMethod::kCg));
}

SolveResult pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                std::span<const double> b, std::span<double> x,
                const SolveOptions& opts) {
  return pcg_labelled(a, m, b, x, opts, method_label(KrylovMethod::kPcg, m));
}

SolveResult flexible_pcg(const CsrMatrix& a, const precond::Preconditioner& m,
                         std::span<const double> b, std::span<double> x,
                         const SolveOptions& opts) {
  check_dims(a, b, x);
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = method_label(KrylovMethod::kFpcg, m);
  const std::size_t n = b.size();
  const auto ws = m.make_workspace();
  std::vector<double> r(n), z(n), z_prev(n), dz(n), p(n), q(n);
  std::vector<double> r32;  // fp32-rounded residual (opts.precond_fp32)
  if (opts.precond_fp32) r32.resize(n);
  auto apply_m = [&](std::span<const double> in, std::span<double> out) {
    PrecondScope t(precond_time);
    if (opts.precond_fp32) {
      la::round_to_float(in, r32);
      m.apply(r32, out, ws.get());
      la::round_to_float(out, out);
    } else {
      m.apply(in, out, ws.get());
    }
  };
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  apply_m(r, z);
  std::copy(z.begin(), z.end(), p.begin());
  const double nb = norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);
  double rho = dot(r, z);
  double rnorm = norm2(r);
  if (opts.track_history) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
  int it = 0;
  while (rnorm > stop && it < opts.max_iterations) {
    obs::Span iter_span("fpcg.iter");
    a.multiply(p, q);
    const double pq = dot(p, q);
    if (pq <= 0.0 || rho == 0.0) {
      // Direction lost positivity (can happen with a nonlinear
      // preconditioner): restart from the preconditioned residual.
      apply_m(r, z);
      std::copy(z.begin(), z.end(), p.begin());
      rho = dot(r, z);
      a.multiply(p, q);
      const double pq2 = dot(p, q);
      DDMGNN_CHECK(pq2 > 0.0, "flexible_pcg: breakdown");
    }
    const double alpha = rho / dot(p, q);
    axpy(alpha, p, x);
    std::copy(z.begin(), z.end(), z_prev.begin());
    axpy(-alpha, q, r);
    rnorm = norm2(r);
    ++it;
    if (opts.track_history) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    iter_span.arg("iter", it);
    iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
    if (rnorm <= stop) break;
    apply_m(r, z);
    // Polak–Ribière: β = <r, z - z_prev> / rho.
    for (std::size_t i = 0; i < n; ++i) dz[i] = z[i] - z_prev[i];
    const double beta = dot(r, dz) / rho;
    rho = dot(r, z);
    xpay(z, beta, p);
  }
  res.iterations = it;
  res.converged = rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  finalize_solve_telemetry(res, opts);
  return res;
}

SolveResult run_krylov(KrylovMethod method, const CsrMatrix& a,
                       const precond::Preconditioner& m,
                       std::span<const double> b, std::span<double> x,
                       const SolveOptions& opts) {
  switch (method) {
    case KrylovMethod::kCg: return conjugate_gradient(a, b, x, opts);
    case KrylovMethod::kPcg: return pcg(a, m, b, x, opts);
    case KrylovMethod::kFpcg: return flexible_pcg(a, m, b, x, opts);
  }
  DDMGNN_CHECK(false, "run_krylov: unknown method");
  std::abort();  // unreachable
}

}  // namespace ddmgnn::solver
