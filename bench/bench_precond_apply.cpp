// DDM-GNN preconditioner apply-time bench: A/Bs the factorized simd DSS
// inference engine against the scalar reference path in one binary (the
// selector is DssConfig::fast_inference) and reports a per-phase wall-clock
// breakdown (projection / gather / aggregate / update / decode) of the fast
// path so the next perf PR has a trajectory to push against.
//
//   bench_precond_apply [--threads N] [--reps R]
//
// Weights are untrained (apply time is weight-independent) so the bench
// needs no model artifact and runs at smoke scale in CI on every push; the
// JSON lands in DDMGNN_ARTIFACT_DIR/bench_precond_apply.json with the usual
// meta stamp (threads / build type / scale).
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "gnn/dss_kernels.hpp"
#include "gnn/dss_model.hpp"
#include "la/vector_ops.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"

namespace {

using namespace ddmgnn;

la::Index nodes_for_scale() {
  switch (bench_scale()) {
    case BenchScale::kSmoke: return 2000;
    case BenchScale::kPaper: return 40000;
    default: return 10000;
  }
}

int reps_for_scale() {
  switch (bench_scale()) {
    case BenchScale::kSmoke: return 5;
    case BenchScale::kPaper: return 100;
    default: return 30;
  }
}

struct ApplyStats {
  bench::Stats seconds;
  la::Index subdomains = 0;
};

ApplyStats time_applies(const gnn::DssModel& model, const bench::Problem& p,
                        const partition::Decomposition& dec, int reps) {
  core::GnnSubdomainSolver::Options opts;
  auto local = std::make_unique<core::GnnSubdomainSolver>(
      model, p.m, p.prob.dirichlet, opts);
  precond::AdditiveSchwarz ddm(
      p.prob.A, dec, std::move(local),
      std::make_unique<partition::NicolaidesCoarseSpace>(p.prob.A, dec));
  std::vector<double> z(p.prob.b.size());
  // One caller-owned workspace for the whole timing run, exactly like a
  // Krylov solve holds one: applies are allocation-free after the warm-up.
  const auto ws = ddm.make_workspace();
  ddm.apply(p.prob.b, z, ws.get());  // warm-up: workspace buffers, page faults
  std::vector<double> times;
  times.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Timer t;
    ddm.apply(p.prob.b, z, ws.get());
    times.push_back(t.seconds());
  }
  return {bench::stats_of(times), static_cast<la::Index>(dec.subdomains.size())};
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::apply_thread_flag(argc, argv);
  const int reps =
      bench::find_flag(argc, argv, "--reps")
          ? std::atoi(bench::find_flag(argc, argv, "--reps"))
          : reps_for_scale();
  bench::print_header("DDM-GNN preconditioner apply: factorized vs reference");

  const la::Index nodes = nodes_for_scale();
  bench::Problem p = bench::make_problem(nodes, /*seed=*/7);
  const auto dec = partition::decompose_target_size(
      p.m.adj_ptr(), p.m.adj(), /*target=*/350, /*overlap=*/2, /*seed=*/7);
  gnn::DssConfig cfg;  // paper defaults: k̄=10, d=10, hidden=10
  gnn::DssModel model(cfg, /*seed=*/3);

  std::printf("N=%d  K=%zu  threads=%d  reps=%d  model k=%d d=%d h=%d\n\n",
              p.prob.A.rows(), dec.subdomains.size(), threads, reps,
              cfg.iterations, cfg.latent, cfg.hidden);

  model.set_fast_inference(false);
  const ApplyStats ref = time_applies(model, p, dec, reps);
  model.set_fast_inference(true);
  const ApplyStats fast = time_applies(model, p, dec, reps);
  const double speedup =
      fast.seconds.mean > 0.0 ? ref.seconds.mean / fast.seconds.mean : 0.0;

  std::printf("%-12s %14s %14s\n", "path", "mean ms/apply", "stddev ms");
  std::printf("%-12s %14.3f %14.3f\n", "reference", ref.seconds.mean * 1e3,
              ref.seconds.stddev * 1e3);
  std::printf("%-12s %14.3f %14.3f\n", "fast", fast.seconds.mean * 1e3,
              fast.seconds.stddev * 1e3);
  std::printf("speedup: %.2fx\n\n", speedup);

  // Per-phase breakdown of the fast path: one forward per subdomain graph
  // (what one preconditioner apply does), accumulated over several passes.
  core::GnnSubdomainSolver::Options opts;
  core::GnnSubdomainSolver probe(model, p.m, p.prob.dirichlet, opts);
  {
    std::vector<la::CsrMatrix> locals;
    locals.reserve(dec.subdomains.size());
    for (const auto& nodes_i : dec.subdomains) {
      locals.push_back(p.prob.A.principal_submatrix(nodes_i));
    }
    probe.setup(std::move(locals), dec);
  }
  gnn::DssPhaseProfile prof;
  gnn::DssWorkspace ws;
  std::vector<float> out;
  double ref_forward_seconds = 0.0;
  const int phase_passes = std::max(3, reps / 3);
  for (int pass = 0; pass < phase_passes; ++pass) {
    for (std::size_t i = 0; i < probe.topologies().size(); ++i) {
      const auto& topo = probe.topologies()[i];
      gnn::GraphSample s;
      s.topo = topo;
      s.rhs.assign(topo->n, 1.0 / std::sqrt(static_cast<double>(topo->n)));
      model.set_fast_inference(true);
      model.forward(s, probe.edge_caches()[i].get(), ws, out, &prof);
      model.set_fast_inference(false);
      Timer t;
      model.forward(s, ws, out);
      ref_forward_seconds += t.seconds();
    }
  }
  const double inv = 1.0 / phase_passes;
  std::printf("fast-path phase breakdown (ms per apply, %d subdomain "
              "forwards):\n", fast.subdomains);
  const struct {
    const char* name;
    double seconds;
  } phases[] = {
      {"projection", prof.projection * inv}, {"gather", prof.gather * inv},
      {"aggregate", prof.aggregate * inv},   {"update", prof.update * inv},
      {"decode", prof.decode * inv},
  };
  for (const auto& ph : phases) {
    std::printf("  %-12s %10.3f ms\n", ph.name, ph.seconds * 1e3);
  }
  std::printf("  %-12s %10.3f ms   (reference forwards: %.3f ms)\n", "total",
              prof.total() * inv * 1e3, ref_forward_seconds * inv * 1e3);

  std::vector<bench::JsonRecord> records;
  for (const auto* st : {&ref, &fast}) {
    records.push_back(bench::JsonRecord()
                          .add("record", std::string("apply"))
                          .add("mode", std::string(st == &ref ? "reference"
                                                              : "fast"))
                          .add("nodes", p.prob.A.rows())
                          .add("subdomains", static_cast<int>(st->subdomains))
                          .add("reps", reps)
                          .add("mean_ms", st->seconds.mean * 1e3)
                          .add("stddev_ms", st->seconds.stddev * 1e3));
  }
  records.push_back(bench::JsonRecord()
                        .add("record", std::string("speedup"))
                        .add("value", speedup));
  for (const auto& ph : phases) {
    records.push_back(bench::JsonRecord()
                          .add("record", std::string("phase"))
                          .add("phase", std::string(ph.name))
                          .add("ms_per_apply", ph.seconds * 1e3));
  }
  records.push_back(bench::JsonRecord()
                        .add("record", std::string("phase"))
                        .add("phase", std::string("reference_forward_total"))
                        .add("ms_per_apply", ref_forward_seconds * inv * 1e3));
  std::filesystem::create_directories(artifact_dir());
  const std::string path = artifact_dir() + "/bench_precond_apply.json";
  bench::write_json(path, records);
  std::printf("\nJSON: %s\n", path.c_str());
  return 0;
}
