#include "solver/stationary.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "la/vector_ops.hpp"
#include "obs/trace.hpp"
#include "solver/telemetry.hpp"

namespace ddmgnn::solver {

SolveResult stationary_iteration(const CsrMatrix& a,
                                 const precond::Preconditioner& m,
                                 std::span<const double> b,
                                 std::span<double> x, const SolveOptions& opts,
                                 double damping) {
  DDMGNN_CHECK(a.rows() == a.cols() &&
                   b.size() == static_cast<std::size_t>(a.rows()) &&
                   x.size() == b.size(),
               "stationary_iteration: dimension mismatch");
  Timer timer;
  Accumulator precond_time;
  SolveResult res;
  res.method = "richardson+" + m.name();
  const std::size_t n = b.size();
  const auto ws = m.make_workspace();
  std::vector<double> r(n), z(n);
  const double nb = la::norm2(b);
  const double stop = opts.rel_tol * (nb > 0.0 ? nb : 1.0);
  const double diverged_at = kDivergenceFactor * (nb > 0.0 ? nb : 1.0);
  int it = 0;
  double rnorm = 0.0;
  bool diverged = false;
  while (true) {
    obs::Span iter_span("richardson.iter");
    a.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    rnorm = la::norm2(r);
    if (opts.track_history) res.history.push_back(rnorm / (nb > 0 ? nb : 1.0));
    iter_span.arg("iter", it);
    iter_span.arg("rel_residual", rnorm / (nb > 0 ? nb : 1.0));
    if (!std::isfinite(rnorm) || rnorm > diverged_at) {
      diverged = true;
      break;
    }
    if (rnorm <= stop || it >= opts.max_iterations) break;
    {
      PrecondScope t(precond_time);
      m.apply(r, z, ws.get());
    }
    la::axpy(damping, z, x);
    ++it;
  }
  res.iterations = it;
  res.converged = !diverged && rnorm <= stop;
  res.final_relative_residual = rnorm / (nb > 0 ? nb : 1.0);
  res.total_seconds = timer.seconds();
  res.precond_seconds = precond_time.total();
  if (diverged) {
    // The driver watched the residual cross kDivergenceFactor (or go
    // non-finite) itself — record the direct observation rather than
    // re-deriving it from the history.
    res.failure = std::isfinite(rnorm) ? obs::FailureReason::kDiverged
                                       : obs::FailureReason::kNan;
  }
  finalize_solve_telemetry(res, opts);
  return res;
}

double power_iteration_damping(const CsrMatrix& a,
                               const precond::Preconditioner& m,
                               int iterations, std::uint64_t seed) {
  DDMGNN_CHECK(a.rows() == a.cols() && a.rows() > 0,
               "power_iteration_damping: square matrix required");
  const std::size_t n = static_cast<std::size_t>(a.rows());
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  const auto ws = m.make_workspace();
  std::vector<double> v(n), av(n), w(n);
  for (double& vi : v) vi = rng.uniform(-1.0, 1.0);
  double lambda = 1.0;
  for (int k = 0; k < iterations; ++k) {
    const double nv = la::norm2(v);
    if (nv == 0.0) break;
    la::scale(1.0 / nv, v);
    a.multiply(v, av);
    m.apply(av, w, ws.get());  // w = M⁻¹ A v
    lambda = la::norm2(w);
    if (!(lambda > 0.0) || !std::isfinite(lambda)) {
      lambda = 1.0;
      break;
    }
    v.swap(w);
  }
  // 5% margin over the estimate; power iteration approaches λ_max from
  // below, so without it the damped spectrum could still graze 2.
  return 1.0 / (1.05 * lambda);
}

}  // namespace ddmgnn::solver
