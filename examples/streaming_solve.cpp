// Streaming service usage: concurrent clients submit right-hand sides
// against TWO cached operators through one core::SolveService, and the
// service merges each operator's traffic into block-solve windows behind
// their backs. Every future still completes individually, with its own
// SolveResult, solution vector, and a receipt of its trip through the
// service (queue wait, window size).
//
// This is the serving pattern the repo's economics point at: setup is paid
// once per operator (via the SessionCache), and concurrent single-RHS
// requests are batched into solve_many block solves — one fused
// preconditioner application per block iteration, however many columns ride
// the window.
//
//   ./streaming_solve [num_clients] [requests_per_client]
//
// num_clients is a whole number from 1 to 64 (default 4) and
// requests_per_client one of at least 1 (default 8); anything else exits 2.
// Exits 1 when a reply is unconverged or the service completed fewer
// requests than it admitted.
#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session_cache.hpp"
#include "core/solve_service.hpp"
#include "fem/poisson.hpp"

using namespace ddmgnn;

namespace {

/// 5-point Laplacian with Dirichlet boundary folded in — the "we only have
/// the matrix" operator, so this example needs no mesh and no model.
la::CsrMatrix grid_laplacian(la::Index side, double diagonal_shift) {
  const la::Index n = side * side;
  la::CooBuilder coo(n, n);
  coo.reserve(static_cast<std::size_t>(n) * 5);
  for (la::Index r = 0; r < side; ++r) {
    for (la::Index c = 0; c < side; ++c) {
      const la::Index i = r * side + c;
      coo.add(i, i, 4.0 + diagonal_shift);
      if (r > 0) coo.add(i, i - side, -1.0);
      if (r + 1 < side) coo.add(i, i + side, -1.0);
      if (c > 0) coo.add(i, i - 1, -1.0);
      if (c + 1 < side) coo.add(i, i + 1, -1.0);
    }
  }
  return std::move(coo).build();
}

/// `text` as a whole number in [lo, hi]; nullopt when it is not one.
std::optional<int> parse_count(const char* text, long lo, long hi) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return std::nullopt;
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<int> clients_arg =
      argc > 1 ? parse_count(argv[1], 1, 64) : 4;
  const std::optional<int> per_client_arg =
      argc > 2 ? parse_count(argv[2], 1, INT_MAX) : 8;
  if (argc > 3 || !clients_arg || !per_client_arg) {
    std::fprintf(stderr,
                 "usage: %s [num_clients 1-64] [requests_per_client >= 1]\n",
                 argv[0]);
    return 2;
  }
  const int clients = *clients_arg;
  const int per_client = *per_client_arg;
  const la::Index side = 48;
  const la::Index n = side * side;

  core::HybridConfig cfg;
  cfg.preconditioner = "ddm-lu";
  cfg.subdomain_target_nodes = 300;
  cfg.rel_tol = 1e-8;
  cfg.track_history = false;

  // The cache owns the prepared sessions; the service owns the batching.
  core::SessionCache cache(/*byte_budget=*/1u << 28);
  core::SolveService svc(cache);

  // Two distinct operators — a base Laplacian and a shifted one — each with
  // its own admission queue. Requests only batch with same-operator traffic.
  const la::CsrMatrix a0 = grid_laplacian(side, 0.0);
  const la::CsrMatrix a1 = grid_laplacian(side, 0.75);
  const auto op0 = svc.register_operator(a0, cfg);
  const auto op1 = svc.register_operator(a1, cfg);

  std::printf("=== Streaming solve: %d clients x %d requests, 2 operators "
              "(n=%d) ===\n",
              clients, per_client, static_cast<int>(n));

  // Each client thread fires single-RHS requests alternating between the two
  // operators, then harvests its own futures. Submission returns
  // immediately; the solve happens on the service's workers, batched with
  // whatever else arrived in the window.
  std::vector<std::thread> threads;
  std::vector<long> client_iters(static_cast<std::size_t>(clients), 0);
  std::vector<int> client_batched(static_cast<std::size_t>(clients), 0);
  std::atomic<int> unconverged{0};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(100 + 13 * static_cast<std::uint64_t>(c));
      std::vector<std::future<core::SolveService::Reply>> futures;
      futures.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        std::vector<double> b(n);
        for (double& v : b) v = rng.uniform(-1.0, 1.0);
        auto fut = svc.submit((c + i) % 2 == 0 ? op0 : op1, std::move(b));
        futures.push_back(std::move(*fut));
      }
      long iters = 0;
      int batched = 0;
      for (auto& fut : futures) {
        const core::SolveService::Reply r = fut.get();
        if (!r.result.converged) {
          std::printf("client %d: UNCONVERGED solve\n", c);
          unconverged.fetch_add(1);
        }
        iters += r.result.iterations;
        if (r.batch_columns > 1) ++batched;
      }
      client_iters[static_cast<std::size_t>(c)] = iters;
      client_batched[static_cast<std::size_t>(c)] = batched;
    });
  }
  for (auto& th : threads) th.join();

  for (int c = 0; c < clients; ++c) {
    std::printf("client %d: %d requests, %d rode a batched window, "
                "%ld iterations total\n",
                c, per_client, client_batched[static_cast<std::size_t>(c)],
                client_iters[static_cast<std::size_t>(c)]);
  }
  const core::SolveService::Stats st = svc.stats();
  std::printf("\nservice: %llu submitted, %llu completed, %llu windows "
              "(mean batch %.2f, max %llu), %llu preconditioner applies "
              "(%.1f per solve)\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.windows),
              st.windows > 0
                  ? static_cast<double>(st.columns) / st.windows
                  : 0.0,
              static_cast<unsigned long long>(st.max_window),
              static_cast<unsigned long long>(st.precond_applies),
              st.completed > 0
                  ? static_cast<double>(st.precond_applies) / st.completed
                  : 0.0);
  if (unconverged.load() > 0 || st.completed != st.submitted) {
    std::fprintf(stderr, "FAILED: %d unconverged, %llu of %llu completed\n",
                 unconverged.load(),
                 static_cast<unsigned long long>(st.completed),
                 static_cast<unsigned long long>(st.submitted));
    return 1;
  }
  return 0;
}
