// Thread-count sweeps for the determinism tests. Under ThreadSanitizer the
// CI pins DDMGNN_THREADS=1: g++'s libgomp is not instrumented, so TSan cannot
// see the happens-before edge at OpenMP barriers and reports false races in
// any multi-thread team. Only the serial point runs there; the std::thread
// concurrency tests are the TSan content.
#pragma once

#include <vector>

#include "common/parallel.hpp"

#if defined(__SANITIZE_THREAD__)
#define DDMGNN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DDMGNN_TSAN 1
#endif
#endif

namespace ddmgnn::test {

/// Restores the ambient thread count when a test that pins it returns.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

/// Thread counts a determinism sweep covers.
inline std::vector<int> sweep_threads() {
#ifdef DDMGNN_TSAN
  return {1};
#else
  return {1, 2, 4};
#endif
}

}  // namespace ddmgnn::test
