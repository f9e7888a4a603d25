#include "solver/block_krylov.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/flags.hpp"
#include "obs/trace.hpp"
#include "solver/telemetry.hpp"

namespace ddmgnn::solver {

namespace {

using la::axpy;
using la::dot;
using la::Index;
using la::MultiVector;
using la::norm2;
using la::xpay;

/// Shared bookkeeping of both block methods: which original columns are
/// still active, their tolerances, histories, and per-column timing shares.
struct ColumnState {
  std::vector<SolveResult> results;     // indexed by ORIGINAL column
  std::vector<Index> act;               // active → original column map
  std::vector<double> nb, stop, rnorm;  // indexed like act
  std::vector<double> precond_share;    // indexed by ORIGINAL column
  bool track_history = false;

  ColumnState(const MultiVector& b, const SolveOptions& opts,
              const std::string& method_label) {
    const Index s = b.cols();
    results.resize(s);
    precond_share.assign(s, 0.0);
    track_history = opts.track_history;
    act.resize(s);
    nb.resize(s);
    stop.resize(s);
    rnorm.assign(s, 0.0);
    for (Index j = 0; j < s; ++j) {
      act[j] = j;
      nb[j] = norm2(b.col(j));
      stop[j] = opts.rel_tol * (nb[j] > 0.0 ? nb[j] : 1.0);
      results[j].method = method_label;
    }
  }

  Index active() const { return static_cast<Index>(act.size()); }

  void push_history() {
    if (!track_history) return;
    for (std::size_t c = 0; c < act.size(); ++c) {
      results[act[c]].history.push_back(rnorm[c] /
                                        (nb[c] > 0.0 ? nb[c] : 1.0));
    }
  }

  void add_precond_time(double seconds) {
    const double share = seconds / static_cast<double>(act.size());
    for (const Index j : act) precond_share[j] += share;
  }

  void finalize(std::size_t c, int iterations, bool converged,
                const Timer& timer) {
    SolveResult& res = results[act[c]];
    res.converged = converged;
    res.iterations = iterations;
    res.final_relative_residual = rnorm[c] / (nb[c] > 0.0 ? nb[c] : 1.0);
    res.total_seconds = timer.seconds();
    res.precond_seconds = precond_share[act[c]];
  }

  /// Finalize every column that stops iterating and drop it from the active
  /// set, compacting the given blocks. A column stops once `rnorm > stop` is
  /// false — the scalar drivers' loop condition — so a NaN residual retires
  /// its column as unconverged instead of riding along to max_iterations;
  /// only rnorm <= stop marks it converged. Returns the kept pre-compaction
  /// indices (size == previous active count when none stopped) so callers
  /// can compact their own per-column scalars.
  template <typename... Blocks>
  std::vector<Index> deflate_finished(int iterations, const Timer& timer,
                                      Blocks&... blocks) {
    std::vector<Index> keep;
    keep.reserve(act.size());
    for (std::size_t c = 0; c < act.size(); ++c) {
      if (rnorm[c] > stop[c]) {
        keep.push_back(static_cast<Index>(c));
      } else {
        finalize(c, iterations, /*converged=*/rnorm[c] <= stop[c], timer);
      }
    }
    if (keep.size() == act.size()) return keep;
    auto compact = [&](auto& v) {
      for (std::size_t c = 0; c < keep.size(); ++c) v[c] = v[keep[c]];
      v.resize(keep.size());
    };
    compact(act);
    compact(nb);
    compact(stop);
    compact(rnorm);
    (blocks.keep_columns(keep), ...);
    return keep;
  }

  void finalize_remaining(int iterations, const Timer& timer) {
    for (std::size_t c = 0; c < act.size(); ++c) {
      finalize(c, iterations, /*converged=*/false, timer);
    }
    act.clear();
  }
};

/// One batched preconditioner application, timed once: the measurement is
/// split into the active columns' precond_seconds shares (which therefore sum
/// back to it exactly) and, when tracing, becomes a "precond.apply_many" span
/// of the identical duration — the block-path counterpart of PrecondScope.
/// With opts.precond_fp32 the residual block is demoted through fp32 into
/// `r32` before the apply and the corrections are demoted in place after it
/// (the mixed-precision seam); the rounding cost counts as preconditioner
/// time, matching the scalar drivers.
void timed_apply_many(const precond::Preconditioner& m, const MultiVector& r,
                      MultiVector& z, precond::ApplyWorkspace* ws,
                      ColumnState& cols, const SolveOptions& opts,
                      MultiVector& r32) {
  const bool tracing = obs::trace_enabled();
  const std::int64_t t0 =
      tracing ? obs::TraceRecorder::instance().now_ns() : 0;
  Timer pt;
  if (opts.precond_fp32) {
    r32.resize(r.rows(), r.cols());
    for (Index j = 0; j < r.cols(); ++j) {
      la::round_to_float(r.col(j), r32.col(j));
    }
    m.apply_many(r32, z, ws);
    for (Index j = 0; j < z.cols(); ++j) {
      la::round_to_float(z.col(j), z.col(j));
    }
  } else {
    m.apply_many(r, z, ws);
  }
  const double s = pt.seconds();
  if (tracing) {
    obs::emit_span("precond.apply_many", t0,
                   static_cast<std::int64_t>(s * 1e9));
  }
  cols.add_precond_time(s);
}

/// r = b - A x for every column, plus initial norms.
void initial_residual(const CsrMatrix& a, const MultiVector& b,
                      const MultiVector& x, MultiVector& r,
                      ColumnState& cols) {
  a.apply_many(x, r);
  for (Index j = 0; j < b.cols(); ++j) {
    auto rj = r.col(j);
    const auto bj = b.col(j);
    for (std::size_t i = 0; i < rj.size(); ++i) rj[i] = bj[i] - rj[i];
    cols.rnorm[j] = norm2(rj);
  }
}

void check_block_dims(const CsrMatrix& a, const MultiVector& b,
                      const MultiVector& x) {
  DDMGNN_CHECK(a.rows() == a.cols(), "block krylov: square matrix required");
  DDMGNN_CHECK(b.rows() == a.rows() && x.rows() == b.rows() &&
                   x.cols() == b.cols() && b.cols() >= 1,
               "block krylov: dimension mismatch");
}

std::vector<SolveResult> block_pcg_impl(const CsrMatrix& a,
                                        const precond::Preconditioner& m,
                                        const MultiVector& b, MultiVector& x,
                                        const SolveOptions& opts,
                                        const std::string& label) {
  check_block_dims(a, b, x);
  Timer timer;
  const Index n = a.rows();
  ColumnState cols(b, opts, label);
  // One preconditioner workspace per block solve (never shared across
  // concurrent solve_many calls on one session).
  const auto ws = m.make_workspace();

  MultiVector r(n, b.cols());
  initial_residual(a, b, x, r, cols);
  MultiVector z(n, b.cols());
  MultiVector r32;  // fp32-rounded residual block (opts.precond_fp32)
  timed_apply_many(m, r, z, ws.get(), cols, opts, r32);
  MultiVector p(n, b.cols());
  copy_columns(z, p);
  std::vector<double> rho(b.cols());
  dot_columns(r, z, rho);
  cols.push_history();
  auto compact_scalars = [](const std::vector<Index>& keep, auto& v) {
    if (keep.size() == v.size()) return;
    for (std::size_t c = 0; c < keep.size(); ++c) v[c] = v[keep[c]];
    v.resize(keep.size());
  };
  compact_scalars(cols.deflate_finished(0, timer, r, p), rho);

  MultiVector q;
  std::vector<double> alpha, pq, rho_next, beta;
  int it = 0;
  while (cols.active() > 0 && it < opts.max_iterations) {
    obs::Span iter_span("block-pcg.iter");
    a.apply_many(p, q);
    const Index na = cols.active();
    alpha.resize(na);
    pq.resize(na);
    dot_columns(p, q, pq);
    for (Index c = 0; c < na; ++c) {
      alpha[c] = rho[c] / pq[c];
      axpy(alpha[c], p.col(c), x.col(cols.act[c]));
      alpha[c] = -alpha[c];
    }
    axpy_columns(alpha, q, r);
    norm2_columns(r, cols.rnorm);
    ++it;
    cols.push_history();
    iter_span.arg("iter", it);
    iter_span.arg("active_columns", cols.active());
    compact_scalars(cols.deflate_finished(it, timer, r, p), rho);
    if (cols.active() == 0) break;
    const Index nw = cols.active();
    z.resize(n, nw);
    timed_apply_many(m, r, z, ws.get(), cols, opts, r32);
    rho_next.resize(nw);
    beta.resize(nw);
    dot_columns(r, z, rho_next);
    for (Index c = 0; c < nw; ++c) {
      beta[c] = rho_next[c] / rho[c];
      rho[c] = rho_next[c];
    }
    xpay_columns(beta, z, p);
  }
  cols.finalize_remaining(it, timer);
  for (SolveResult& res : cols.results) finalize_solve_telemetry(res, opts);
  return std::move(cols.results);
}

}  // namespace

std::vector<SolveResult> block_pcg(const CsrMatrix& a,
                                   const precond::Preconditioner& m,
                                   const MultiVector& b, MultiVector& x,
                                   const SolveOptions& opts) {
  return block_pcg_impl(a, m, b, x, opts, "block-pcg+" + m.name());
}

std::vector<SolveResult> block_flexible_pcg(const CsrMatrix& a,
                                            const precond::Preconditioner& m,
                                            const MultiVector& b,
                                            MultiVector& x,
                                            const SolveOptions& opts) {
  check_block_dims(a, b, x);
  Timer timer;
  const Index n = a.rows();
  const std::string label = "block-fpcg+" + m.name();
  ColumnState cols(b, opts, label);
  const auto ws = m.make_workspace();

  MultiVector r(n, b.cols());
  initial_residual(a, b, x, r, cols);
  cols.push_history();
  cols.deflate_finished(0, timer, r);

  // Windowed store of A-orthonormal direction blocks (with images Q = A P,
  // newest last). With a nonlinear preconditioner the short CG recurrence
  // loses conjugacy, so new directions are orthogonalized against — and
  // every column's residual re-projected over — the whole window; that is
  // what lets the shared search space pay off for DDM-GNN. It is not cheap:
  // run column by column it took about 80% of a served 8-column window. So
  // both window passes (projecting the candidates, then the Galerkin update)
  // run direction by direction across all active columns: each stored
  // direction's dots against every active column run in one pass, as
  // independent chains (la::dot_many). The axpys that follow still run
  // column by column, each re-reading that p or q column. Every column still
  // takes the directions in window order, with la::dot's summation order,
  // so its arithmetic is that of the column-by-column loop, bit for bit.
  std::vector<MultiVector> pblocks, qblocks;
  Index stored = 0;  // total direction columns across the window
  // Eviction cap (oldest first): generous — the window is what converts the
  // block apply into an iteration-count win — but bounded to ~256 MB
  // of direction storage on huge problems (each stored direction keeps both
  // p and q, 16 bytes/row).
  const Index mem_cap = static_cast<Index>(std::max<long long>(
      2 * b.cols(), (256ll << 20) / (16ll * n)));
  const Index max_stored =
      std::min(std::max<Index>(256, 16 * b.cols()), mem_cap);

  MultiVector z;
  MultiVector r32;  // fp32-rounded residual block (opts.precond_fp32)
  std::vector<double> norm_before, coef;
  std::vector<Index> cand, all;
  // Stagnation safeguard: if no active column improves its best residual by
  // the slack factor over a full window, stop and let the per-column
  // fallback finish the stragglers. Columns active at such a structural
  // no-progress exit are remembered so the merged per-column failure can
  // report "stagnated" even when the history is off (serving runs with
  // track_history=false) and the fallback then exhausts the leftover budget.
  constexpr int kStallWindow = 25;
  constexpr double kStallSlack = 0.999;
  std::vector<double> best(cols.rnorm.begin(), cols.rnorm.end());
  std::vector<char> block_stagnated(b.cols(), 0);
  int stall = 0;

  int it = 0;
  while (cols.active() > 0 && it < opts.max_iterations) {
    obs::Span iter_span("block-fpcg.iter");
    const Index na = cols.active();
    z.resize(n, na);
    timed_apply_many(m, r, z, ws.get(), cols, opts, r32);

    // Build the new direction block: conjugate the nonzero preconditioned
    // residuals (the candidates) against every stored block (coef = Qᵀ d,
    // valid because Pᵀ A P = I per stored column) — independent per
    // candidate, so in place in z, one stored direction at a time — then
    // A-orthonormalize them among themselves in order (modified Gram-Schmidt
    // in the A-inner product), dropping columns that fall into the span of
    // the ones already kept — that is the rank-deficiency / duplicate-RHS
    // handling.
    norm_before.resize(na);
    cand.clear();
    for (Index c = 0; c < na; ++c) {
      norm_before[c] = norm2(z.col(c));
      if (norm_before[c] != 0.0) cand.push_back(c);
    }
    coef.resize(na);
    const std::span<double> cand_coef(coef.data(), cand.size());
    for (std::size_t blk = 0; blk < pblocks.size(); ++blk) {
      for (Index k = 0; k < pblocks[blk].cols(); ++k) {
        la::dot_many(qblocks[blk].col(k), z, cand, cand_coef);
        for (std::size_t i = 0; i < cand.size(); ++i) {
          axpy(-cand_coef[i], pblocks[blk].col(k), z.col(cand[i]));
        }
      }
    }
    MultiVector dnew(n, na), qnew(n, na);
    Index kept = 0;
    for (const Index c : cand) {
      auto d = dnew.col(kept);
      la::copy(z.col(c), d);
      for (Index k = 0; k < kept; ++k) {
        axpy(-dot(qnew.col(k), d), dnew.col(k), d);
      }
      if (norm2(d) <= 1e-10 * norm_before[c]) continue;  // already spanned
      auto qd = qnew.col(kept);
      a.multiply(d, qd);
      const double a_norm2 = dot(d, qd);
      if (!(a_norm2 > 0.0)) continue;  // numerically indefinite direction
      const double inv = 1.0 / std::sqrt(a_norm2);
      la::scale(inv, d);
      la::scale(inv, qd);
      ++kept;
    }
    if (kept == 0) {
      // No usable directions — progress stopped; fall back below.
      for (const Index j : cols.act) block_stagnated[j] = 1;
      break;
    }
    if (kept < na) {
      std::vector<Index> head(kept);
      for (Index k = 0; k < kept; ++k) head[k] = k;
      dnew.keep_columns(head);
      qnew.keep_columns(head);
    }
    pblocks.push_back(std::move(dnew));
    qblocks.push_back(std::move(qnew));
    stored += kept;
    while (stored > max_stored && pblocks.size() > 1) {
      stored -= pblocks.front().cols();
      pblocks.erase(pblocks.begin());
      qblocks.erase(qblocks.begin());
    }

    // Galerkin update over the WHOLE window for every column, one stored
    // direction p (A-orthonormal) at a time: x += p (pᵀ r), r -= (A p)(pᵀ r).
    // Old-block coefficients are exactly zero for a fixed SPD M (classic
    // conjugacy) but recover what the nonlinear GNN leaks.
    all.resize(na);
    std::iota(all.begin(), all.end(), Index{0});
    for (std::size_t blk = 0; blk < pblocks.size(); ++blk) {
      const MultiVector& pb = pblocks[blk];
      const MultiVector& qb = qblocks[blk];
      for (Index k = 0; k < pb.cols(); ++k) {
        la::dot_many(pb.col(k), r, all, coef);
        for (Index c = 0; c < na; ++c) {
          axpy(coef[c], pb.col(k), x.col(cols.act[c]));
          axpy(-coef[c], qb.col(k), r.col(c));
        }
      }
    }
    for (Index c = 0; c < na; ++c) cols.rnorm[c] = norm2(r.col(c));
    ++it;
    cols.push_history();
    iter_span.arg("iter", it);
    iter_span.arg("active_columns", cols.active());

    bool improved = false;
    for (std::size_t c = 0; c < cols.act.size(); ++c) {
      if (cols.rnorm[c] < kStallSlack * best[c]) {
        best[c] = cols.rnorm[c];
        improved = true;
      }
    }
    stall = improved ? 0 : stall + 1;

    const auto keep = cols.deflate_finished(it, timer, r);
    if (keep.size() != best.size()) {
      for (std::size_t c = 0; c < keep.size(); ++c) best[c] = best[keep[c]];
      best.resize(keep.size());
    }
    if (stall >= kStallWindow) {
      for (const Index j : cols.act) block_stagnated[j] = 1;
      break;
    }
  }
  cols.finalize_remaining(it, timer);

  // Correctness net: the recurrences above (nonlinear preconditioner, lost
  // conjugation) are verified per column against the TRUE residual; any
  // column that misses its tolerance is finished by scalar flexible PCG,
  // warm-started from the block iterate.
  std::vector<double> true_res(n);
  for (Index j = 0; j < b.cols(); ++j) {
    a.multiply(x.col(j), true_res);
    const auto bj = b.col(j);
    for (Index i = 0; i < n; ++i) true_res[i] = bj[i] - true_res[i];
    const double tr = norm2(true_res);
    const double nbj = norm2(bj);
    const double stop = opts.rel_tol * (nbj > 0.0 ? nbj : 1.0);
    SolveResult& res = cols.results[j];
    res.final_relative_residual = tr / (nbj > 0.0 ? nbj : 1.0);
    if (tr <= stop) {
      res.converged = true;
      finalize_solve_telemetry(res, opts);
      continue;
    }
    SolveOptions fb = opts;
    fb.max_iterations = std::max(1, opts.max_iterations - res.iterations);
    // The scalar solve runs finalize_solve_telemetry itself (it is a real
    // solve; its metrics belong in the registry). Re-derive the failure and
    // per-column preconditioner accounting on the merged result, without
    // recording a second set of per-solve metrics.
    SolveResult scalar = flexible_pcg(a, m, bj, x.col(j), fb);
    scalar.iterations += res.iterations;
    scalar.precond_seconds += res.precond_seconds;
    scalar.total_seconds = timer.seconds();
    scalar.method = label + ">fallback:" + scalar.method;
    if (opts.track_history) {
      scalar.history.insert(scalar.history.begin(), res.history.begin(),
                            res.history.end());
    }
    if (!scalar.converged) {
      scalar.failure = classify_failure(scalar, opts);
      // The block phase watched this column make no progress for a full
      // stall window before handing it over; "ran out of iterations" would
      // misname that. Keep any sharper diagnosis (NaN, divergence).
      if (block_stagnated[j] &&
          scalar.failure == obs::FailureReason::kMaxIterations) {
        scalar.failure = obs::FailureReason::kStagnated;
      }
    }
    cols.results[j] = std::move(scalar);
  }
  return std::move(cols.results);
}

std::vector<SolveResult> run_block_krylov(
    KrylovMethod method, const CsrMatrix& a, const precond::Preconditioner& m,
    const MultiVector& b, MultiVector& x, const SolveOptions& opts) {
  switch (method) {
    case KrylovMethod::kCg: {
      static const precond::IdentityPreconditioner identity;
      return block_pcg_impl(a, identity, b, x, opts, "block-cg");
    }
    case KrylovMethod::kPcg:
      return block_pcg(a, m, b, x, opts);
    case KrylovMethod::kFpcg:
      return block_flexible_pcg(a, m, b, x, opts);
  }
  DDMGNN_CHECK(false, "run_block_krylov: unknown method");
  std::abort();  // unreachable
}

}  // namespace ddmgnn::solver
