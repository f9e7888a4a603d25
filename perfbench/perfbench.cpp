// perfbench: the end-to-end and per-layer performance driver, written as a
// client of the solver library's public API. One process runs one workload
// (README.md in this directory says which and why):
//
//   gnn-dss-2k     plain ddm-gnn (every subdomain through DSS inference):
//                  setup, then warm FPCG solves on a ~2k-node mesh
//   lu-setup-100k  two-level ddm-lu: setup, then warm PCG solves on a
//                  ~100k-node mesh
//   serve-batch-8  the served ddm-gnn config behind a default SolveService,
//                  one closed-loop driver keeping 8 requests in flight
//
//   perfbench --workload NAME --model PATH [--rhs-seed S] [--mesh-seed M]
//             [--seconds T] [--trace 0|1] [--smoke] [--trace-out FILE]
//             [--git-sha SHA]
//   perfbench --provision-model PATH
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed, metrics ({name: {value, unit}}), env and diagnostics.
// Every solve is checked here against its true residual ‖b − Ax‖/‖b‖.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/dataset.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "core/session_cache.hpp"
#include "core/solve_service.hpp"
#include "core/solver_session.hpp"
#include "fem/poisson.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/model_io.hpp"
#include "gnn/trainer.hpp"
#include "la/multivector.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "obs/flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "precond/asm_precond.hpp"

namespace {

using namespace ddmgnn;
using Clock = std::chrono::steady_clock;

constexpr double kRelTol = 1e-6;
// A solve whose recomputed true residual exceeds this multiple of the
// requested tolerance fails, whatever its converged flag says.
constexpr double kResidualSlack = 10.0;
constexpr std::uint64_t kModelSeed = 97;
constexpr int kInFlight = 8;
constexpr std::size_t kCacheBytes = std::size_t{1} << 30;

volatile double g_sink = 0.0;  // keeps timed results observable

// ------------------------------------------------------------------ JSON --

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Flat JSON object builder; raw() takes an already-rendered JSON value.
class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += jstr(key) + ":" + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double v) { return raw(key, jnum(v)); }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, jstr(v));
  }
  JsonObject& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ----------------------------------------------------------------- stats --

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0
                    : std::accumulate(xs.begin(), xs.end(), 0.0) /
                          static_cast<double>(xs.size());
}

/// {min, median, max} of a run's samples: the within-run spread.
std::string range_json(const std::vector<double>& xs) {
  if (xs.empty()) return "{}";
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return JsonObject()
      .num("min", *lo)
      .num("median", median(xs))
      .num("max", *hi)
      .dump();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

std::string metrics_json(const Metrics& ms) {
  JsonObject o;
  for (const Metric& m : ms) {
    o.raw(m.name, JsonObject().num("value", m.value).str("unit", m.unit).dump());
  }
  return o.dump();
}

// --------------------------------------------------------------- options --

struct Options {
  std::string workload;
  std::uint64_t rhs_seed = 1;
  std::uint64_t mesh_seed = 7;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string model_path;
  std::string trace_out;
  std::string git_sha = "none";
  std::string provision_path;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      DDMGNN_CHECK(i + 1 < argc, "perfbench: " + a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--rhs-seed") {
      o.rhs_seed = std::stoull(value());
    } else if (a == "--mesh-seed") {
      o.mesh_seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--model") {
      o.model_path = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--git-sha") {
      o.git_sha = value();
    } else if (a == "--provision-model") {
      o.provision_path = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      DDMGNN_CHECK(false, "perfbench: unknown argument " + a);
    }
  }
  DDMGNN_CHECK(o.seconds > 0.0, "perfbench: --seconds must be > 0");
  return o;
}

// ------------------------------------------------------------ the model --

/// FNV-1a over the model's configuration and weights: identifies the model
/// every result was measured with.
std::string model_checksum(const gnn::DssModel& model) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const gnn::DssConfig& c = model.config();
  const int dims[] = {c.iterations, c.latent, c.hidden, c.dirichlet_flag};
  mix(dims, sizeof(dims));
  mix(&c.alpha, sizeof(c.alpha));
  const auto params = model.params();
  mix(params.data(), params.size_bytes());
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

/// Train the benchmark's DSS model (k̄ = d = hidden = 10) on the smoke-scale
/// dataset for a fixed 30 epochs, with no wall-clock budget, on one thread.
/// A budget would cut training short on a slow machine, and with more
/// threads the per-thread gradient grouping follows the dynamic schedule;
/// either would make every GNN number depend on the host.
int provision_model(const std::string& path) {
  set_num_threads(1);
  core::DatasetConfig ds;
  ds.num_global_problems = 2;
  ds.mesh_target_nodes = 900;
  ds.subdomain_target_nodes = 220;
  ds.seed = 4242;
  const core::DssDataset data = core::generate_dataset(ds);

  gnn::DssConfig mc;
  mc.iterations = 10;
  mc.latent = 10;
  mc.hidden = 10;
  mc.alpha = 0.05f;
  mc.dirichlet_flag = true;
  gnn::DssModel model(mc, kModelSeed);
  gnn::TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 32;
  tc.learning_rate = 1e-2;
  tc.clip_norm = 0.1;
  tc.wall_clock_budget_s = 0.0;
  tc.seed = kModelSeed;
  const gnn::TrainReport report =
      gnn::train_dss(model, data.train, data.validation, tc);
  DDMGNN_CHECK(report.epochs_run == tc.epochs,
               "perfbench: model training stopped early");

  // Write-then-rename: a killed run never leaves a truncated cache behind.
  const std::string tmp = path + ".tmp";
  gnn::save_model(model, tmp);
  std::filesystem::rename(tmp, path);
  std::printf("provisioned %s: %d epochs in %.1f s, checksum %s\n",
              path.c_str(), report.epochs_run, report.seconds,
              model_checksum(model).c_str());
  return 0;
}

// --------------------------------------------------------------- inputs --

struct Problem {
  mesh::Mesh m;
  fem::PoissonProblem prob;
};

/// Random-blob Poisson problem of about `target_nodes` nodes (paper §IV-A):
/// the domain grows with the target, the element size stays the training
/// one, and f/g are rescaled with the radius.
Problem make_problem(la::Index target_nodes, std::uint64_t seed) {
  const mesh::Domain unit = mesh::random_domain(seed);
  const double h = std::sqrt(unit.area() / (0.8660254 * 1000.0));
  const double radius_scale = std::sqrt(target_nodes / 1000.0);
  mesh::Mesh m =
      mesh::generate_mesh(mesh::random_domain(seed, radius_scale), h, seed);
  const fem::QuadraticData q = fem::sample_quadratic_data(seed, radius_scale);
  fem::PoissonProblem prob = fem::assemble_poisson(
      m, [&](const mesh::Point2& p) { return q.f(p); },
      [&](const mesh::Point2& p) { return q.g(p); });
  return {std::move(m), std::move(prob)};
}

std::vector<std::vector<double>> make_rhs(std::size_t n, int count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out(static_cast<std::size_t>(count));
  for (auto& b : out) {
    b.resize(n);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
  }
  return out;
}

// ----------------------------------------------------- correctness gate --

/// Counts operations and failures. An operation fails when it throws, is
/// rejected, does not converge, or its true residual — recomputed here with
/// CsrMatrix::apply — misses kResidualSlack × the requested tolerance.
class Gate {
 public:
  explicit Gate(const la::CsrMatrix& a) : a_(a) {}

  bool check(std::span<const double> b, std::span<const double> x,
             const solver::SolveResult& res) {
    const std::vector<double> ax = a_.apply(x);
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      const double d = b[i] - ax[i];
      rr += d * d;
      bb += b[i] * b[i];
    }
    const double rel = std::sqrt(rr) / (bb > 0.0 ? std::sqrt(bb) : 1.0);
    if (std::isnan(rel) || rel > worst_) worst_ = rel;
    if (!res.converged) return fail("unconverged");
    if (!(rel <= kResidualSlack * kRelTol)) return fail("true-residual");
    ++attempted_;
    return true;
  }

  bool fail(const std::string& reason) {
    ++attempted_;
    ++failed_;
    ++reasons_[reason];
    return false;
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  std::string json() const {
    JsonObject reasons;
    for (const auto& [why, count] : reasons_) {
      reasons.num(why, static_cast<double>(count));
    }
    return JsonObject()
        .num("worst_true_residual", worst_)
        .raw("failure_reasons", reasons.dump())
        .dump();
  }

 private:
  const la::CsrMatrix& a_;
  long attempted_ = 0;
  long failed_ = 0;
  double worst_ = 0.0;
  std::map<std::string, long> reasons_;
};

// ----------------------------------------------------- timed public calls --

double timed_setup(core::SolverSession& s, const Problem& p,
                   const core::HybridConfig& cfg) {
  Timer t;
  obs::Span span("bench.setup");
  s.setup(p.m, p.prob, cfg);
  return t.seconds();
}

/// Solve A x = b from a zero guess and check it; returns wall seconds.
double timed_solve(const core::SolverSession& s, std::span<const double> b,
                   std::vector<double>& x, Gate& gate,
                   solver::SolveResult* out = nullptr) {
  x.assign(b.size(), 0.0);
  solver::SolveResult res;
  Timer t;
  {
    obs::Span span("bench.solve");
    res = s.solve(b, x);
  }
  const double seconds = t.seconds();
  {
    obs::Span span("bench.verify");
    gate.check(b, x, res);
  }
  if (out != nullptr) *out = std::move(res);
  return seconds;
}

// ------------------------------------------------------------ environment --

/// Fixed floating-point work owned by the benchmark, timed at the start and
/// the end of every run: how fast the host was, independent of the code
/// under test. A diagnostic, never a metric.
double reference_loop_seconds() {
  Timer t;
  double x = 0.5;
  for (long i = 0; i < 100'000'000; ++i) x = x * 0.999999 + 1e-6;
  g_sink = x;
  return t.seconds();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Share of the session's subdomains served by DSS inference rather than an
/// exact factor (0 for preconditioners without a GNN local solver).
double dss_subdomain_frac(const core::SolverSession& s) {
  const auto* schwarz =
      dynamic_cast<const precond::AdditiveSchwarz*>(&s.preconditioner());
  if (schwarz == nullptr || s.num_subdomains() == 0) return 0.0;
  const auto* local =
      dynamic_cast<const core::GnnSubdomainSolver*>(&schwarz->local_solver());
  if (local == nullptr) return 0.0;
  return 1.0 - static_cast<double>(local->fallback_count()) /
                   static_cast<double>(s.num_subdomains());
}

// ------------------------------------------------------ library telemetry --

struct GaugeMetric {
  const char* gauge;
  const char* metric;
};
// Summed over a run's solves (per-solve averages are reported).
constexpr GaugeMetric kSolveGauges[] = {
    {"asm.restrict_seconds", "asm.restrict_s"},
    {"asm.subdomain_solve_seconds", "asm.subdomain_solve_s"},
    {"asm.prolong_seconds", "asm.prolong_s"},
    {"asm.coarse_seconds", "asm.coarse_s"},
    {"dss.projection_seconds", "dss.projection_s"},
    {"dss.gather_seconds", "dss.gather_s"},
    {"dss.aggregate_seconds", "dss.aggregate_s"},
    {"dss.update_seconds", "dss.update_s"},
    {"dss.decode_seconds", "dss.decode_s"},
};
// Summed over a run's setups (per-setup averages are reported).
constexpr GaugeMetric kSetupGauges[] = {
    {"setup.decomposition_seconds", "setup.decomposition_s"},
    {"setup.extract_blocks_seconds", "setup.extract_blocks_s"},
    {"setup.local_solver_seconds", "setup.local_solver_s"},
    {"setup.coarse_space_seconds", "setup.coarse_space_s"},
    {"setup.dss_edge_cache_seconds", "setup.dss_edge_cache_s"},
};

double gauge_value(const char* name) {
  const obs::Gauge* g = obs::Registry::instance().find_gauge(name);
  return g != nullptr ? g->value() : 0.0;
}

std::vector<double> read_gauges(std::span<const GaugeMetric> gs) {
  std::vector<double> out;
  for (const GaugeMetric& g : gs) out.push_back(gauge_value(g.gauge));
  return out;
}

/// (gauge now − before) / count for every gauge, as metrics in seconds.
void add_gauge_deltas(std::span<const GaugeMetric> gs,
                      const std::vector<double>& before, double count,
                      Metrics& out) {
  for (std::size_t i = 0; i < gs.size(); ++i) {
    out.push_back({gs[i].metric,
                   (gauge_value(gs[i].gauge) - before[i]) /
                       std::max(count, 1.0),
                   "s"});
  }
}

void start_tracing() {
  obs::Registry::instance().reset();
  obs::TraceRecorder::instance().clear();
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
}

void stop_tracing() {
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
}

// --------------------------------------------------------- span analysis --

/// A complete trace event with its self time — its duration minus that of
/// its direct children (spans starting inside it on the same thread) — and
/// the index of its outermost ancestor.
struct SpanNode {
  obs::TraceEvent ev;
  double self_s = 0.0;
  std::size_t root = 0;
  std::int64_t end() const { return ev.ts_ns + ev.dur_ns; }
  std::string_view name() const { return ev.name; }
  double seconds() const { return static_cast<double>(ev.dur_ns) * 1e-9; }
};

/// Spans that start in [t0, t1), nested per thread.
std::vector<SpanNode> span_forest(std::int64_t t0, std::int64_t t1) {
  std::vector<SpanNode> nodes;
  for (const obs::TraceEvent& e : obs::TraceRecorder::instance().snapshot()) {
    if (e.dur_ns < 0 || e.ts_ns < t0 || e.ts_ns >= t1) continue;
    nodes.push_back({e, static_cast<double>(e.dur_ns) * 1e-9, 0});
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const SpanNode& a, const SpanNode& b) {
              if (a.ev.tid != b.ev.tid) return a.ev.tid < b.ev.tid;
              if (a.ev.ts_ns != b.ev.ts_ns) return a.ev.ts_ns < b.ev.ts_ns;
              return a.ev.dur_ns > b.ev.dur_ns;  // parents first
            });
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    while (!open.empty() && (nodes[open.back()].ev.tid != nodes[i].ev.tid ||
                             nodes[i].ev.ts_ns >= nodes[open.back()].end())) {
      open.pop_back();
    }
    if (open.empty()) {
      nodes[i].root = i;
    } else {
      SpanNode& parent = nodes[open.back()];
      parent.self_s -= nodes[i].seconds();
      nodes[i].root = parent.root;
    }
    open.push_back(i);
  }
  return nodes;
}

/// The module a span belongs to, by its name.
const char* layer_of(std::string_view name) {
  if (name.starts_with("bench.")) return "bench";
  if (name.starts_with("dss.")) return "gnn";
  if (name.starts_with("asm.") || name.starts_with("precond.")) {
    return "precond";
  }
  if (name.starts_with("setup.") || name == "session.setup" ||
      name == "gnn.setup" || name == "cache.setup") {
    return "setup";
  }
  if (name.starts_with("service.")) return "core";
  if (name.starts_with("mg.")) return "mg";
  if (name.starts_with("session.solve") || name.ends_with(".iter")) {
    return "solver";
  }
  return "other";
}

/// Wall time split into layers; the layers must explain it to within 5%.
struct LayerAccount {
  std::map<std::string, double> seconds;
  double wall = 0.0;

  double accounted() const {
    double s = 0.0;
    for (const auto& [layer, v] : seconds) s += v;
    return s;
  }
  double coverage() const { return wall > 0.0 ? accounted() / wall : 0.0; }
  bool reconciled() const { return std::abs(coverage() - 1.0) <= 0.05; }

  std::string json() const {
    JsonObject layers;
    for (const auto& [layer, v] : seconds) layers.num(layer, v);
    return JsonObject()
        .raw("self_seconds", layers.dump())
        .num("wall_seconds", wall)
        .num("coverage", coverage())
        .flag("reconciled", reconciled())
        .dump();
  }
};

double seconds_named(const std::vector<SpanNode>& nodes,
                     std::string_view name) {
  double s = 0.0;
  for (const SpanNode& n : nodes) {
    if (n.name() == name) s += n.seconds();
  }
  return s;
}

// -------------------------------------------------------- layer probes --

/// Benchmark-timed calls into single layers on the workload's own operator
/// and preconditioner, telemetry off: SpMV, SpMM, the Krylov vector ops, and
/// preconditioner applies with a held workspace.
void probe_layers(const la::CsrMatrix& A, const precond::Preconditioner& M,
                  std::uint64_t seed, bool smoke, Metrics& out) {
  const la::Index n = A.rows();
  Rng rng(seed ^ 0x5DEECE66Dull);
  std::vector<double> x(n), y(n), z(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  for (double& v : y) v = rng.uniform(-1.0, 1.0);
  la::MultiVector xs(n, kInFlight), ys(n, kInFlight), zs(n, kInFlight);
  for (double& v : xs.data()) v = rng.uniform(-1.0, 1.0);

  const double budget = smoke ? 0.05 : 0.3;
  const auto repeat = [&](const auto& op, std::size_t min_reps) {
    std::vector<double> ts;
    Timer total;
    while (ts.size() < min_reps ||
           (total.seconds() < budget && ts.size() < 5000)) {
      Timer t;
      op();
      ts.push_back(t.seconds());
    }
    return median(ts);
  };

  const double spmv = repeat([&] { A.multiply(x, y); }, 20);
  // Bytes a CSR SpMV moves at least once: values and column indices, row
  // pointers, x and y. Computed from sizes, not measured.
  const double bytes =
      static_cast<double>(A.nnz()) * (sizeof(double) + sizeof(la::Index)) +
      static_cast<double>(n + 1) * sizeof(la::Offset) +
      2.0 * static_cast<double>(n) * sizeof(double);
  const double vec = repeat(
      [&] {
        g_sink = la::dot(x, y);
        la::axpy(1e-3, x, y);
        la::xpay(x, 0.5, y);
      },
      20);
  const double spmm = repeat([&] { A.apply_many(xs, ys); }, 10);
  const auto ws = M.make_workspace();
  const double apply = repeat([&] { M.apply(x, z, ws.get()); }, 5);
  const double apply_many = repeat([&] { M.apply_many(xs, zs, ws.get()); }, 3);

  out.push_back({"la.spmv_ms", spmv * 1e3, "ms"});
  out.push_back({"la.spmv_gbps_computed", bytes / spmv * 1e-9, "GB/s"});
  out.push_back({"la.vec_ops_ms", vec * 1e3, "ms"});
  out.push_back({"la.spmm8_ms_per_col", spmm * 1e3 / kInFlight, "ms"});
  out.push_back({"precond.apply_ms", apply * 1e3, "ms"});
  out.push_back(
      {"precond.apply_many8_ms_per_col", apply_many * 1e3 / kInFlight, "ms"});
}

// ------------------------------------------------------------ workloads --

struct Run {
  const Options& opt;
  const Problem& p;
  std::vector<std::vector<double>> rhs;
  Gate gate;
  Metrics metrics;
  JsonObject diag;
  la::Index subdomains = 0;

  const std::vector<double>& rhs_at(std::size_t i) const {
    return rhs[i % rhs.size()];
  }
};

core::HybridConfig base_config(const char* precond,
                               const gnn::DssModel* model) {
  core::HybridConfig cfg;
  cfg.preconditioner = precond;
  cfg.subdomain_target_nodes = 350;
  cfg.rel_tol = kRelTol;
  cfg.max_iterations = 2000;
  cfg.track_history = false;
  cfg.model = model;
  return cfg;
}

struct OneShot {
  int warm_per_cycle;  // warm solves after each fresh session's first solve
  int extra_setups;    // setup-only sessions per cycle (ms-scale setups)
  int traced_setups;
};

/// Untimed warm-up: the first solve in a fresh process pays one-time costs
/// (page faults, thread-pool start) that no later session sees.
void oneshot_warm_up(Run& r, const core::HybridConfig& cfg) {
  core::SolverSession s;
  timed_setup(s, r.p, cfg);
  std::vector<double> x;
  timed_solve(s, r.p.prob.b, x, r.gate);
  timed_solve(s, r.rhs_at(0), x, r.gate);
  r.subdomains = s.num_subdomains();
}

/// Untraced one-shot measurement: cycles of a fresh session's setup and
/// first solve (time to solution) followed by warm solves, until the budget
/// is spent. Every figure is a median over the run.
void oneshot_measure(Run& r, const core::HybridConfig& cfg,
                     const OneShot& w) {
  std::vector<double> setups, tts, warm;
  std::vector<double> x;
  std::size_t next = 0;
  const int min_cycles = r.opt.smoke ? 1 : 3;
  Timer budget;
  for (int cycle = 0; cycle < min_cycles || budget.seconds() < r.opt.seconds;
       ++cycle) {
    core::SolverSession s;
    const double ts = timed_setup(s, r.p, cfg);
    const double first = timed_solve(s, r.rhs_at(next++), x, r.gate);
    setups.push_back(ts);
    tts.push_back(ts + first);
    for (int k = 0; k < w.warm_per_cycle; ++k) {
      warm.push_back(timed_solve(s, r.rhs_at(next++), x, r.gate));
    }
    for (int k = 0; k < w.extra_setups; ++k) {
      core::SolverSession extra;
      setups.push_back(timed_setup(extra, r.p, cfg));
    }
  }
  r.metrics.push_back({"setup_s", median(setups), "s"});
  r.metrics.push_back({"tts_s", median(tts), "s"});
  r.metrics.push_back({"solve_s", median(warm), "s"});
  // A one-shot request is one warm solve: throughput is sequential solving
  // at the median solve time. A run holds a dozen to a few dozen warm
  // solves — too few for a p99, whose nearest rank would be the single
  // slowest solve, a host hiccup — so the tail figure is their p90.
  r.metrics.push_back({"rhs_per_s", 1.0 / median(warm), "1/s"});
  r.metrics.push_back({"latency_ms_p50", median(warm) * 1e3, "ms"});
  r.metrics.push_back({"latency_ms_p99", quantile(warm, 0.90) * 1e3, "ms"});
  r.diag.raw("samples",
             JsonObject()
                 .num("setups", static_cast<double>(setups.size()))
                 .num("first_solves", static_cast<double>(tts.size()))
                 .num("warm_solves", static_cast<double>(warm.size()))
                 .dump())
      .raw("setup_s_range", range_json(setups))
      .raw("solve_s_range", range_json(warm));
}

/// Traced one-shot run: an untraced stretch of warm solves (the overhead
/// reference), then — with obs metrics and tracing on — fresh setups, the
/// problem's own right-hand side (its iteration count is the exact
/// solver.iterations) and warm solves; then the layer probes. The layer
/// account is every span on the thread making the public calls against the
/// traced wall time; work an OpenMP team runs for a span is charged to that
/// span.
void oneshot_traced(Run& r, const core::HybridConfig& cfg, const OneShot& w) {
  std::vector<double> x;
  std::size_t next = 0;
  core::SolverSession s;
  timed_setup(s, r.p, cfg);
  std::vector<double> plain;
  Timer ref;
  while (plain.size() < 2 || ref.seconds() < 0.3 * r.opt.seconds) {
    plain.push_back(timed_solve(s, r.rhs_at(next++), x, r.gate));
  }

  auto& rec = obs::TraceRecorder::instance();
  start_tracing();
  const std::int64_t t0 = rec.now_ns();
  Timer wall;
  for (int k = 0; k < w.traced_setups; ++k) {
    core::SolverSession fresh;
    timed_setup(fresh, r.p, cfg);
  }
  Metrics setup_metrics;
  add_gauge_deltas(kSetupGauges,
                   std::vector<double>(std::size(kSetupGauges), 0.0),
                   w.traced_setups, setup_metrics);

  const std::int64_t t_solve = rec.now_ns();
  const std::vector<double> before = read_gauges(kSolveGauges);
  solver::SolveResult canonical;
  timed_solve(s, r.p.prob.b, x, r.gate, &canonical);
  std::vector<double> traced, iterate;
  std::vector<double> applies{static_cast<double>(canonical.iterations)};
  while (traced.size() < 2 || wall.seconds() < 0.7 * r.opt.seconds) {
    solver::SolveResult res;
    traced.push_back(timed_solve(s, r.rhs_at(next++), x, r.gate, &res));
    iterate.push_back(res.total_seconds - res.precond_seconds);
    applies.push_back(res.iterations);
  }
  const double solves = static_cast<double>(applies.size());
  Metrics solve_metrics;
  add_gauge_deltas(kSolveGauges, before, solves, solve_metrics);
  const std::int64_t t1 = rec.now_ns();
  const double wall_s = wall.seconds();
  stop_tracing();

  const std::vector<SpanNode> nodes = span_forest(t0, t1);
  int tid = -1;
  for (const SpanNode& n : nodes) {
    if (n.name() == "bench.solve") tid = n.ev.tid;
  }
  LayerAccount acc;
  acc.wall = wall_s;
  double forward_s = 0.0;
  for (const SpanNode& n : nodes) {
    if (n.ev.tid == tid) acc.seconds[layer_of(n.name())] += n.self_s;
    if (n.ev.ts_ns >= t_solve && n.name() == "dss.forward") {
      forward_s += n.seconds();
    }
  }

  Metrics& m = r.metrics;
  m.push_back({"solver.iterations", static_cast<double>(canonical.iterations),
               "count"});
  m.push_back({"solver.iterate_s", median(iterate), "s"});
  m.push_back({"solver.block_iterate_ms_per_window", 0.0, "ms"});
  // Scalar Krylov applies the preconditioner once per iteration.
  m.push_back({"solver.applies_per_rhs", mean(applies), "count"});
  probe_layers(r.p.prob.A, s.preconditioner(), r.opt.rhs_seed, r.opt.smoke, m);
  m.insert(m.end(), solve_metrics.begin(), solve_metrics.end());
  m.push_back({"dss.forward_s", forward_s / solves, "s"});
  m.push_back({"gnn.dss_subdomain_frac", dss_subdomain_frac(s), "ratio"});
  m.insert(m.end(), setup_metrics.begin(), setup_metrics.end());
  m.push_back({"service.mean_batch", 0.0, "count"});
  m.push_back({"service.queue_ms_p50", 0.0, "ms"});
  m.push_back({"service.window_ms_p50", 0.0, "ms"});
  m.push_back({"trace.coverage_frac", acc.coverage(), "ratio"});

  const double overhead = median(traced) - median(plain);
  r.diag.raw("layers", acc.json())
      .num("trace_overhead_s", overhead)
      .num("trace_overhead_frac", overhead / median(plain))
      .num("traced_solves", solves)
      .num("untraced_solves", static_cast<double>(plain.size()));
}

core::HybridConfig served_config(const gnn::DssModel* model) {
  core::HybridConfig cfg = base_config("ddm-gnn", model);
  cfg.max_iterations = 500;
  cfg.gnn_adaptive_refinement = true;
  cfg.precond_fp32 = true;
  return cfg;
}

struct LoopResult {
  std::vector<double> latency_s, queue_s, iterate_s, iterations;
  std::vector<Clock::time_point> completed_at;
  double seconds = 0.0;
};

/// Closed loop: one driver thread keeps kInFlight requests in flight,
/// submitting the next only when a reply arrives, until `seconds` have
/// passed and at least `min_requests` were submitted. Latency is submit →
/// Reply::completed_at.
LoopResult closed_loop(Run& r, core::SolveService& svc,
                       core::SolveService::OperatorKey key, double seconds,
                       long min_requests, std::size_t& next) {
  struct Pending {
    std::future<core::SolveService::Reply> fut;
    Clock::time_point sent;
    std::size_t rhs;
  };
  std::deque<Pending> inflight;
  long submitted = 0;
  const auto submit = [&] {
    obs::Span span("bench.submit");
    const std::size_t idx = next++;
    ++submitted;
    const Clock::time_point sent = Clock::now();
    auto fut = svc.submit(key, r.rhs_at(idx));
    if (!fut) {
      r.gate.fail("rejected");
      return;
    }
    inflight.push_back({std::move(*fut), sent, idx});
  };

  LoopResult out;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (int i = 0; i < kInFlight; ++i) submit();
  while (!inflight.empty()) {
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    std::optional<core::SolveService::Reply> reply;
    try {
      obs::Span span("bench.wait");
      reply = p.fut.get();
    } catch (const std::exception&) {
      r.gate.fail("exception");
    }
    if (seconds_between(start, Clock::now()) < seconds ||
        submitted < min_requests) {
      submit();
    }
    if (!reply) continue;
    {
      obs::Span span("bench.verify");
      r.gate.check(r.rhs_at(p.rhs), reply->x, reply->result);
    }
    out.latency_s.push_back(seconds_between(p.sent, reply->completed_at));
    out.queue_s.push_back(reply->queue_seconds);
    out.iterate_s.push_back(reply->result.total_seconds -
                            reply->result.precond_seconds);
    out.iterations.push_back(reply->result.iterations);
    out.completed_at.push_back(reply->completed_at);
    last = std::max(last, reply->completed_at);
  }
  out.seconds = seconds_between(start, last);
  return out;
}

/// One cold start: register the operator on a fresh cache and service (the
/// served setup), then the first request on it (time to solution).
void cold_start(Run& r, const core::HybridConfig& cfg, std::size_t idx,
                std::vector<double>* setups, std::vector<double>* tts) {
  core::SessionCache cache(kCacheBytes);
  core::SolveService svc(cache);
  Timer t;
  core::SolveService::OperatorKey key = 0;
  {
    obs::Span span("bench.setup");
    key = svc.register_operator(r.p.m, r.p.prob, cfg);
  }
  const double setup = t.seconds();
  auto fut = svc.submit(key, r.rhs_at(idx));
  if (!fut) {
    r.gate.fail("rejected");
    return;
  }
  const core::SolveService::Reply reply = fut->get();
  const double first = t.seconds();
  r.gate.check(r.rhs_at(idx), reply.x, reply.result);
  if (setups != nullptr) setups->push_back(setup);
  if (tts != nullptr) tts->push_back(first);
}

/// Untraced serve measurement. Cold starts, unbatched solves and closed-loop
/// stretches alternate in blocks spread over the run: the host's speed
/// swings over tens of seconds, and DSS-heavy setups feel them most, so no
/// metric is taken from one burst at one end of the run.
void serve_measure(Run& r, const core::HybridConfig& cfg) {
  core::SessionCache cache(kCacheBytes);
  core::SolveService svc(cache);
  const auto key = svc.register_operator(r.p.m, r.p.prob, cfg);
  // The session the service serves (a cache hit): its unbatched warm solve
  // is the per-request cost batching has to beat.
  const std::shared_ptr<core::SolverSession> session =
      cache.get_or_setup(r.p.m, r.p.prob, cfg);
  r.subdomains = session->num_subdomains();
  std::size_t next = 0;
  closed_loop(r, svc, key, r.opt.smoke ? 0.2 : 1.0, 0, next);  // warm-up

  constexpr int kBlocks = 5;
  const int cold_per_block = r.opt.smoke ? 1 : 5;
  const std::size_t single_per_block = r.opt.smoke ? 5 : 40;
  const long min_requests = r.opt.smoke ? 50 : 1000;
  std::vector<double> setups, tts, single, x, latency;
  double loop_seconds = 0.0;
  for (int block = 0; block < kBlocks; ++block) {
    for (int k = 0; k < cold_per_block; ++k) {
      cold_start(r, cfg, next++, &setups, &tts);
    }
    for (std::size_t k = 0; k < single_per_block; ++k) {
      single.push_back(timed_solve(*session, r.rhs_at(next++), x, r.gate));
    }
    const LoopResult part = closed_loop(r, svc, key, r.opt.seconds / kBlocks,
                                        min_requests / kBlocks, next);
    latency.insert(latency.end(), part.latency_s.begin(), part.latency_s.end());
    loop_seconds += part.seconds;
  }

  const core::SolveService::Stats st = svc.stats();
  r.metrics.push_back({"setup_s", median(setups), "s"});
  r.metrics.push_back({"tts_s", median(tts), "s"});
  r.metrics.push_back({"solve_s", median(single), "s"});
  r.metrics.push_back(
      {"rhs_per_s", static_cast<double>(latency.size()) / loop_seconds, "1/s"});
  r.metrics.push_back({"latency_ms_p50", median(latency) * 1e3, "ms"});
  r.metrics.push_back({"latency_ms_p99", quantile(latency, 0.99) * 1e3, "ms"});
  r.diag.raw("samples",
             JsonObject()
                 .num("cold_starts", static_cast<double>(setups.size()))
                 .num("single_solves", static_cast<double>(single.size()))
                 .num("requests", static_cast<double>(latency.size()))
                 .dump())
      .raw("setup_s_range", range_json(setups))
      .num("mean_batch", st.windows > 0 ? static_cast<double>(st.columns) /
                                              static_cast<double>(st.windows)
                                        : 0.0)
      .num("max_window", static_cast<double>(st.max_window));
}

/// Serve workload, traced. The layer account is per request: each request
/// is charged its queue wait plus the layer self times of the window that
/// served it (the spans on that worker inside its service.window), and the
/// sum over requests must reconcile with the sum of their latencies.
void serve_traced(Run& r, const core::HybridConfig& cfg) {
  core::SessionCache cache(kCacheBytes);
  core::SolveService svc(cache);
  const auto key = svc.register_operator(r.p.m, r.p.prob, cfg);
  const std::shared_ptr<core::SolverSession> session =
      cache.get_or_setup(r.p.m, r.p.prob, cfg);
  r.subdomains = session->num_subdomains();
  std::size_t next = 0;
  closed_loop(r, svc, key, r.opt.smoke ? 0.2 : 1.0, 0, next);  // warm-up
  const LoopResult plain =
      closed_loop(r, svc, key, 0.3 * r.opt.seconds, 0, next);

  auto& rec = obs::TraceRecorder::instance();
  start_tracing();
  const int traced_setups = 2;
  for (int k = 0; k < traced_setups; ++k) {
    cold_start(r, cfg, next++, nullptr, nullptr);
  }
  Metrics setup_metrics;
  add_gauge_deltas(kSetupGauges,
                   std::vector<double>(std::size(kSetupGauges), 0.0),
                   traced_setups, setup_metrics);

  const std::int64_t t0 = rec.now_ns();
  const std::int64_t clock_offset = steady_ns(Clock::now()) - rec.now_ns();
  const core::SolveService::Stats st0 = svc.stats();
  const std::vector<double> before = read_gauges(kSolveGauges);
  const LoopResult loop = closed_loop(r, svc, key, 0.7 * r.opt.seconds,
                                      r.opt.smoke ? 16 : 300, next);
  const core::SolveService::Stats st1 = svc.stats();
  const double completed = static_cast<double>(st1.completed - st0.completed);
  Metrics solve_metrics;
  add_gauge_deltas(kSolveGauges, before, completed, solve_metrics);
  const std::int64_t t1 = rec.now_ns();
  stop_tracing();

  // Windows: their extent, layer self times and apply_many time.
  const std::vector<SpanNode> nodes = span_forest(t0, t1);
  struct Window {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::map<std::string, double> layers;
    double apply_many_s = 0.0;
  };
  std::map<std::size_t, Window> windows;  // by root index
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].root == i && nodes[i].name() == "service.window") {
      windows[i].start = nodes[i].ev.ts_ns;
      windows[i].end = nodes[i].end();
    }
  }
  for (const SpanNode& n : nodes) {
    const auto it = windows.find(n.root);
    if (it == windows.end()) continue;
    it->second.layers[layer_of(n.name())] += n.self_s;
    if (n.name() == "precond.apply_many") it->second.apply_many_s += n.seconds();
  }
  std::vector<double> window_ms, block_iterate_ms;
  for (const auto& [root, w] : windows) {
    const double dur = static_cast<double>(w.end - w.start) * 1e-9;
    window_ms.push_back(dur * 1e3);
    block_iterate_ms.push_back((dur - w.apply_many_s) * 1e3);
  }
  LayerAccount acc;
  for (std::size_t i = 0; i < loop.latency_s.size(); ++i) {
    acc.wall += loop.latency_s[i];
    acc.seconds["queue"] += loop.queue_s[i];
    const std::int64_t done = steady_ns(loop.completed_at[i]) - clock_offset;
    for (const auto& [root, w] : windows) {
      if (w.start <= done && done <= w.end) {
        for (const auto& [layer, s] : w.layers) acc.seconds[layer] += s;
        break;
      }
    }
  }

  Metrics& m = r.metrics;
  m.push_back({"solver.iterations", mean(loop.iterations), "count"});
  m.push_back({"solver.iterate_s", median(loop.iterate_s), "s"});
  m.push_back({"solver.block_iterate_ms_per_window", median(block_iterate_ms),
               "ms"});
  m.push_back({"solver.applies_per_rhs",
               static_cast<double>(st1.precond_applies - st0.precond_applies) /
                   std::max(completed, 1.0),
               "count"});
  probe_layers(r.p.prob.A, session->preconditioner(), r.opt.rhs_seed,
               r.opt.smoke, m);
  m.insert(m.end(), solve_metrics.begin(), solve_metrics.end());
  m.push_back({"dss.forward_s",
               seconds_named(nodes, "dss.forward") / std::max(completed, 1.0),
               "s"});
  m.push_back({"gnn.dss_subdomain_frac", dss_subdomain_frac(*session),
               "ratio"});
  m.insert(m.end(), setup_metrics.begin(), setup_metrics.end());
  m.push_back({"service.mean_batch",
               static_cast<double>(st1.columns - st0.columns) /
                   static_cast<double>(std::max<std::uint64_t>(
                       st1.windows - st0.windows, 1)),
               "count"});
  m.push_back({"service.queue_ms_p50", median(loop.queue_s) * 1e3, "ms"});
  m.push_back({"service.window_ms_p50", median(window_ms), "ms"});
  m.push_back({"trace.coverage_frac", acc.coverage(), "ratio"});

  const double overhead = median(loop.latency_s) - median(plain.latency_s);
  r.diag.raw("layers", acc.json())
      .num("trace_overhead_s", overhead)
      .num("trace_overhead_frac", overhead / median(plain.latency_s))
      .num("traced_requests", static_cast<double>(loop.latency_s.size()))
      .num("windows", static_cast<double>(windows.size()));
}

// ------------------------------------------------------------------ main --

struct WorkloadSpec {
  const char* name;
  la::Index nodes;
  la::Index smoke_nodes;
  int inner_threads;
  bool needs_model;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"gnn-dss-2k", 2000, 2000, 2, true},
    {"lu-setup-100k", 100000, 10000, 2, false},
    {"serve-batch-8", 2000, 2000, 1, true},
};

int run(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  DDMGNN_CHECK(spec != nullptr,
               "perfbench: unknown workload '" + opt.workload + "'");
  obs::TraceRecorder::instance().set_capacity_per_thread(std::size_t{1} << 20);
  const double ref_start = reference_loop_seconds();

  std::optional<gnn::DssModel> model;
  if (!opt.model_path.empty()) model = gnn::load_model(opt.model_path);
  DDMGNN_CHECK(!spec->needs_model || model.has_value(),
               "perfbench: cannot load the DSS model '" + opt.model_path +
                   "' (run.py provisions it)");
  const gnn::DssModel* model_ptr = model ? &*model : nullptr;

  set_num_threads(spec->inner_threads);
  const Problem p = make_problem(opt.smoke ? spec->smoke_nodes : spec->nodes,
                                 opt.mesh_seed);
  const bool serve = opt.workload == "serve-batch-8";
  Run r{opt, p, make_rhs(p.prob.b.size(), serve ? 64 : 8, opt.rhs_seed),
        Gate(p.prob.A), {}, {}, 0};

  bool ok = true;
  try {
    if (serve) {
      const core::HybridConfig cfg = served_config(model_ptr);
      opt.trace ? serve_traced(r, cfg) : serve_measure(r, cfg);
    } else {
      const bool gnn = opt.workload == "gnn-dss-2k";
      const core::HybridConfig cfg =
          base_config(gnn ? "ddm-gnn" : "ddm-lu", gnn ? model_ptr : nullptr);
      const OneShot w =
          gnn ? OneShot{1, 4, 10} : OneShot{2, 1, opt.smoke ? 1 : 3};
      oneshot_warm_up(r, cfg);
      opt.trace ? oneshot_traced(r, cfg, w) : oneshot_measure(r, cfg, w);
    }
  } catch (const std::exception& e) {
    r.gate.fail("exception");
    r.diag.str("exception", e.what());
    ok = false;
  }
  if (!opt.trace) r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  // A traced run that lost events has no trustworthy layer account.
  const std::uint64_t dropped = obs::TraceRecorder::instance().dropped();
  if (opt.trace && !opt.trace_out.empty()) {
    obs::TraceRecorder::instance().write_chrome_trace(opt.trace_out);
  }
  const double ref_end = reference_loop_seconds();

#ifdef DDMGNN_BUILD_TYPE
  const char* build_type = DDMGNN_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  const JsonObject env =
      JsonObject()
          .str("workload", opt.workload)
          .str("git_sha", opt.git_sha)
          .str("build_type", build_type)
          .flag("native", PERFBENCH_NATIVE != 0)
          .num("nproc", std::thread::hardware_concurrency())
          .num("inner_threads", spec->inner_threads)
          .num("service_workers",
               serve ? core::ServiceConfig{}.num_workers : 0)
          .num("driver_threads", 1)
          .num("in_flight", serve ? kInFlight : 1)
          .str("model_checksum", model ? model_checksum(*model) : "none")
          .num("model_seed", static_cast<double>(kModelSeed))
          .num("rhs_seed", static_cast<double>(opt.rhs_seed))
          .num("mesh_seed", static_cast<double>(opt.mesh_seed))
          .num("n", p.prob.A.rows())
          .num("nnz", static_cast<double>(p.prob.A.nnz()))
          .num("subdomains", r.subdomains)
          .num("run_seconds", opt.seconds)
          .flag("smoke", opt.smoke)
          .flag("traced", opt.trace);
  r.diag.raw("gate", r.gate.json())
      .num("reference_loop_start_s", ref_start)
      .num("reference_loop_end_s", ref_end)
      .num("reference_drift", ref_end / ref_start - 1.0)
      .num("trace_dropped_events", static_cast<double>(dropped));

  const bool correct = ok && r.gate.failed() == 0 && dropped == 0;
  std::printf(
      "%s\n",
      JsonObject()
          .flag("correct", correct)
          .num("attempted", static_cast<double>(std::max(r.gate.attempted(), 1L)))
          .num("failed", static_cast<double>(r.gate.failed()))
          .raw("metrics", metrics_json(r.metrics))
          .raw("env", env.dump())
          .raw("diagnostics", r.diag.dump())
          .dump()
          .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    if (!opt.provision_path.empty()) return provision_model(opt.provision_path);
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
