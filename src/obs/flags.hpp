// Process-wide telemetry toggles. All three default OFF so the instrumented
// hot paths (Krylov iterations, AdditiveSchwarz::apply, DSS forwards) pay only
// a relaxed atomic load per check — the "near-zero overhead when disabled"
// contract obs_test's ObsTrace.DisabledModeOverheadGuard checks.
//
//   metrics   — counters / gauges / histograms in obs::Registry
//   trace     — obs::Span events into obs::TraceRecorder ring buffers
//   forensics — per-iteration residual + preconditioner-time series capture
//               into SolveResult (heavier: grows vectors inside the solve)
//
// Flags are independent; set_* may be flipped at any time from any thread.
// In-flight spans/phases latch the flag value at construction, so a mid-solve
// toggle yields a torn-but-safe picture (some spans recorded, none corrupt).
#pragma once

#include <atomic>

namespace ddmgnn::obs {

namespace detail {
inline std::atomic<bool>& metrics_flag() {
  static std::atomic<bool> v{false};
  return v;
}
inline std::atomic<bool>& trace_flag() {
  static std::atomic<bool> v{false};
  return v;
}
inline std::atomic<bool>& forensics_flag() {
  static std::atomic<bool> v{false};
  return v;
}
}  // namespace detail

inline bool metrics_enabled() {
  return detail::metrics_flag().load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::metrics_flag().store(on, std::memory_order_relaxed);
}

inline bool trace_enabled() {
  return detail::trace_flag().load(std::memory_order_relaxed);
}
inline void set_trace_enabled(bool on) {
  detail::trace_flag().store(on, std::memory_order_relaxed);
}

inline bool forensics_enabled() {
  return detail::forensics_flag().load(std::memory_order_relaxed);
}
inline void set_forensics_enabled(bool on) {
  detail::forensics_flag().store(on, std::memory_order_relaxed);
}

/// True when any timing consumer is live — the phase instrumentation reads
/// the clock only then.
inline bool timing_enabled() { return metrics_enabled() || trace_enabled(); }

}  // namespace ddmgnn::obs
