// Wall-clock timing utilities used by the benchmark harnesses (Table III /
// Fig. 6 report elapsed seconds) and by the wall-clock training budget guard.
#pragma once

#include <chrono>

namespace ddmgnn {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across many timed windows (e.g. total time spent
/// applying a preconditioner across all PCG iterations, the paper's T_lu and
/// T_gnn columns). Callers time each window once and add it here, so the
/// same delta can also be recorded as a trace span.
class Accumulator {
 public:
  void add(double seconds) { total_ += seconds; }
  double total() const { return total_; }

 private:
  double total_ = 0.0;
};

}  // namespace ddmgnn
