// Shared solver-driver instrumentation: the one timed window every
// preconditioner application goes through.
// Internal to src/solver (krylov.cpp, block_krylov.cpp, stationary.cpp); the
// public telemetry surface (classify_failure, finalize_solve_telemetry) is
// declared in krylov.hpp.
#pragma once

#include <cstdint>

#include "common/timer.hpp"
#include "obs/flags.hpp"
#include "obs/trace.hpp"

namespace ddmgnn::solver {

/// One timed preconditioner application: the single measurement feeds both
/// SolveResult::precond_seconds via the Accumulator and a "precond.apply"
/// trace span of the identical duration — so span totals reconcile with
/// precond_seconds exactly, across every driver, by construction.
class PrecondScope {
 public:
  explicit PrecondScope(Accumulator& acc)
      : acc_(acc), tracing_(obs::trace_enabled()) {
    if (tracing_) start_ns_ = obs::TraceRecorder::instance().now_ns();
    timer_.reset();
  }
  ~PrecondScope() {
    const double s = timer_.seconds();
    acc_.add(s);
    if (tracing_) {
      obs::emit_span("precond.apply", start_ns_,
                     static_cast<std::int64_t>(s * 1e9));
    }
  }
  PrecondScope(const PrecondScope&) = delete;
  PrecondScope& operator=(const PrecondScope&) = delete;

 private:
  Accumulator& acc_;
  bool tracing_;
  std::int64_t start_ns_ = 0;
  Timer timer_;
};

}  // namespace ddmgnn::solver
