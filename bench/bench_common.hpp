// Shared helpers for the bench harnesses: problem factories, statistics,
// and scale-dependent sizing. Every bench prints the table/figure it
// reproduces in the paper's layout; DDMGNN_BENCH_SCALE=smoke|default|paper
// selects the sweep sizes (see DESIGN.md §2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "la/mm_io.hpp"
#include "mesh/generator.hpp"
#include "obs/metrics.hpp"

namespace ddmgnn::bench {

struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  int count = 0;
};

inline Stats stats_of(const std::vector<double>& xs) {
  Stats s;
  s.count = static_cast<int>(xs.size());
  if (xs.empty()) return s;
  for (const double x : xs) s.mean += x;
  s.mean /= xs.size();
  for (const double x : xs) s.stddev += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(s.stddev / xs.size());
  return s;
}

inline std::string pm(const Stats& s, int width = 0) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.0f±%-3.0f", width, s.mean, s.stddev);
  return buf;
}

/// The latency quantiles every serving-style bench reports, in seconds.
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Exact sample percentiles (nearest-rank on a sorted copy). Use when the
/// bench holds every individual latency; prefer the Histogram overload when
/// samples were only accumulated into buckets.
inline Percentiles percentiles_of(std::vector<double> xs) {
  Percentiles p;
  if (xs.empty()) return p;
  std::sort(xs.begin(), xs.end());
  const auto at = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

/// Bucket-interpolated percentiles from an obs histogram (the concurrent
/// accumulation path: clients observe into the histogram, the bench reads
/// quantiles after joining).
inline Percentiles percentiles_of(const obs::Histogram& h) {
  return {h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)};
}

/// Seeded Poisson-process arrival offsets: `count` times (seconds from the
/// trace start, strictly increasing) with exponential inter-arrivals at
/// `rate_per_sec`. The open-loop load generator for service benches —
/// arrivals are scheduled up front, so a slow server cannot slow the
/// offered load (no coordinated omission).
inline std::vector<double> poisson_arrivals(double rate_per_sec, int count,
                                            std::uint64_t seed) {
  DDMGNN_CHECK(rate_per_sec > 0.0, "poisson_arrivals: rate must be > 0");
  Rng rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    double u = rng.uniform();
    while (u <= 1e-300) u = rng.uniform();
    t += -std::log(u) / rate_per_sec;
    at.push_back(t);
  }
  return at;
}

struct Problem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

/// Random-blob Poisson problem at ~`target_nodes`, paper §IV-A data. The
/// domain radius is grown with sqrt(target) at fixed element size, matching
/// the paper's scaling protocol; f/g are rescaled accordingly.
inline Problem make_problem(la::Index target_nodes, std::uint64_t seed) {
  // Unit-scale blob ≈ `base` nodes at the training element size; scale the
  // radius to hit the target with the same elements.
  const mesh::Domain dom = mesh::random_domain(seed);
  const double area = dom.area();
  const double h = std::sqrt(area / (0.8660254 * 1000.0));  // ~1000 @ unit
  const double radius_scale = std::sqrt(target_nodes / 1000.0);
  const mesh::Domain scaled = mesh::random_domain(seed, radius_scale);
  mesh::Mesh m = mesh::generate_mesh(scaled, h, seed);
  const auto q = fem::sample_quadratic_data(seed, radius_scale);
  auto prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

/// A bench problem from either source: the generated FEM mesh (default) or
/// an external MatrixMarket operator (`--matrix file.mtx`, optional
/// `--rhs b.mtx`). `mesh` is engaged only for the FEM source; matrix-sourced
/// problems run through the session's algebraic setup path. `source` feeds
/// the JSON records so perf trajectories can tell operators apart.
struct AnyProblem {
  std::optional<mesh::Mesh> mesh;
  fem::PoissonProblem prob;
  std::string source;  // "fem" or the --matrix path

  la::Index num_nodes() const { return prob.A.rows(); }

  /// setup() through the right path for this problem's source.
  void setup_session(core::SolverSession& session,
                     const core::HybridConfig& cfg) const {
    if (mesh.has_value()) {
      session.setup(*mesh, prob, cfg);
    } else {
      session.setup(prob.A, cfg);
    }
  }
};

/// Value-less boolean flag (e.g. `--require-converged`).
inline bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

inline const char* find_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// Honor a `--threads N` flag (overrides DDMGNN_THREADS / OMP defaults for
/// the whole process) and return the effective worker count either way.
inline int apply_thread_flag(int argc, char** argv) {
  if (const char* t = find_flag(argc, argv, "--threads")) {
    const int v = std::atoi(t);
    DDMGNN_CHECK(v > 0, std::string("--threads must be > 0 (got ") + t + ")");
    set_num_threads(v);
  }
  return num_threads();
}

/// `--matrix file.mtx [--rhs b.mtx]` when present, else the generated FEM
/// problem at `target_nodes`. Matrix mode defaults the right-hand side to
/// A·1 (manufactured all-ones solution) and an empty Dirichlet mask.
inline AnyProblem load_or_make_problem(int argc, char** argv,
                                       la::Index target_nodes,
                                       std::uint64_t seed) {
  AnyProblem out;
  const char* matrix_path = find_flag(argc, argv, "--matrix");
  if (matrix_path == nullptr) {
    auto [m, prob] = make_problem(target_nodes, seed);
    out.mesh = std::move(m);
    out.prob = std::move(prob);
    out.source = "fem";
    return out;
  }
  out.prob.A = la::mm::read_matrix(matrix_path);
  DDMGNN_CHECK(out.prob.A.rows() == out.prob.A.cols(),
               std::string("--matrix ") + matrix_path +
                   ": operator must be square");
  const char* rhs_path = find_flag(argc, argv, "--rhs");
  if (rhs_path != nullptr) {
    out.prob.b = la::mm::read_vector(rhs_path);
    DDMGNN_CHECK(out.prob.b.size() ==
                     static_cast<std::size_t>(out.prob.A.rows()),
                 std::string("--rhs ") + rhs_path +
                     ": size does not match the operator");
  } else {
    const std::vector<double> ones(out.prob.A.rows(), 1.0);
    out.prob.b = out.prob.A.apply(ones);
  }
  out.prob.dirichlet.assign(out.prob.A.rows(), 0);
  out.source = matrix_path;
  return out;
}

/// One-shot setup+solve (from a zero guess) for benches that genuinely solve
/// each system once. Benches that serve repeated right-hand sides
/// (bench_setup_amortization) hold a SolverSession themselves instead.
struct RunReport {
  solver::SolveResult result;
  la::Index num_subdomains = 0;  // K (0 when no decomposition involved)
};

inline RunReport run_session(const mesh::Mesh& m,
                             const fem::PoissonProblem& prob,
                             const core::HybridConfig& cfg) {
  core::SolverSession session;
  session.setup(m, prob, cfg);
  std::vector<double> x(prob.b.size(), 0.0);
  return {session.solve(prob.b, x), session.num_subdomains()};
}

/// Minimal JSON emission for bench artifacts: a flat object per record,
/// records written as a JSON array. Values are numbers, booleans or strings.
class JsonRecord {
 public:
  JsonRecord& add(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  JsonRecord& add(const std::string& key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonRecord& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonRecord& add(const std::string& key, const std::vector<long>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) arr += ",";
      arr += std::to_string(vs[i]);
    }
    return raw(key, arr + "]");
  }
  JsonRecord& add(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonRecord& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// The environment stamp every bench JSON carries as its first record, so
/// perf numbers stay interpretable after the fact: effective thread count,
/// build type, and the DDMGNN_BENCH_SCALE preset.
inline JsonRecord meta_record() {
#ifdef DDMGNN_BUILD_TYPE
  const std::string build_type = DDMGNN_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  return JsonRecord()
      .add("record", std::string("meta"))
      .add("threads", num_threads())
      .add("build_type", build_type)
      .add("bench_scale", std::string(bench_scale_name()));
}

/// Write records as a JSON array to `path` (usually under artifact_dir()),
/// prefixed with the meta_record() environment stamp.
inline void write_json(const std::string& path,
                       const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  out << "[\n  " << meta_record().str() << (records.empty() ? "" : ",")
      << "\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << "  " << records[i].str() << (i + 1 < records.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

/// Number of repeated problems per configuration (paper: 100).
inline int num_repetitions() {
  switch (bench_scale()) {
    case BenchScale::kSmoke: return 2;
    case BenchScale::kPaper: return 100;
    default: return 5;
  }
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s   [scale: %s]\n", title, bench_scale_name());
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace ddmgnn::bench
