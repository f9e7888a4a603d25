// Micro-benchmarks of the kernels behind Table III's timings: SpMV, skyline
// Cholesky factor/solve, IC(0) apply, dense coarse solve, MLP forward
// (scalar reference and fused simd kernel), single-subdomain DSS inference
// (factorized and reference paths), and one full ASM preconditioner
// application. These back the T / T_lu / T_gnn decomposition with
// kernel-level numbers. Uses google-benchmark when available and the
// bench_shim fallback timing loop otherwise.
#include "bench_shim.hpp"

#include <cmath>
#include <map>
#include <memory>

#include "bench_common.hpp"
#include "core/gnn_subdomain_solver.hpp"
#include "gnn/dss_model.hpp"
#include "gnn/graph.hpp"
#include "la/ic0.hpp"
#include "la/skyline_cholesky.hpp"
#include "nn/mlp.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"

namespace {

using namespace ddmgnn;

bench::Problem& cached_problem(la::Index n) {
  static std::map<la::Index, bench::Problem> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, bench::make_problem(n, 7)).first;
  }
  return it->second;
}

void BM_SpMV(benchmark::State& state) {
  const auto& p = cached_problem(static_cast<la::Index>(state.range(0)));
  std::vector<double> x(p.prob.b.size(), 1.0), y(p.prob.b.size());
  for (auto _ : state) {
    p.prob.A.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * p.prob.A.nnz());
}
BENCHMARK(BM_SpMV)->Arg(2000)->Arg(10000)->Arg(40000);

void BM_SkylineFactor(benchmark::State& state) {
  const auto& p = cached_problem(2000);
  const auto dec = partition::decompose_target_size(
      p.m.adj_ptr(), p.m.adj(), static_cast<la::Index>(state.range(0)), 2, 7);
  const auto block = p.prob.A.principal_submatrix(dec.subdomains[0]);
  for (auto _ : state) {
    la::SkylineCholesky f(block, true);
    benchmark::DoNotOptimize(&f);
  }
}
BENCHMARK(BM_SkylineFactor)->Arg(350)->Arg(700)->Arg(1400);

void BM_SkylineSolve(benchmark::State& state) {
  const auto& p = cached_problem(2000);
  const auto dec = partition::decompose_target_size(
      p.m.adj_ptr(), p.m.adj(), static_cast<la::Index>(state.range(0)), 2, 7);
  const auto block = p.prob.A.principal_submatrix(dec.subdomains[0]);
  const la::SkylineCholesky f(block, true);
  std::vector<double> b(block.rows(), 1.0);
  for (auto _ : state) {
    auto x = f.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SkylineSolve)->Arg(350)->Arg(700)->Arg(1400);

void BM_Ic0Apply(benchmark::State& state) {
  const auto& p = cached_problem(static_cast<la::Index>(state.range(0)));
  const la::IncompleteCholesky0 ic(p.prob.A);
  std::vector<double> r(p.prob.b.size(), 1.0), z(r.size());
  for (auto _ : state) {
    ic.apply(r, z);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_Ic0Apply)->Arg(10000)->Arg(40000);

void BM_MlpForward(benchmark::State& state) {
  nn::ParameterStore ps;
  nn::Mlp mlp(ps, 23, 10, 10);
  ps.finalize();
  Rng rng(1);
  mlp.init(ps.values(), rng);
  nn::Tensor x(static_cast<int>(state.range(0)), 23), y;
  for (auto& v : x.d) v = static_cast<float>(rng.uniform(-1, 1));
  nn::Mlp::Cache cache;
  for (auto _ : state) {
    mlp.forward(ps.data(), x, y, cache);
    benchmark::DoNotOptimize(y.d.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpForward)->Arg(2048)->Arg(8192);

void BM_MlpInferFused(benchmark::State& state) {
  nn::ParameterStore ps;
  nn::Mlp mlp(ps, 23, 10, 10);
  ps.finalize();
  Rng rng(1);
  mlp.init(ps.values(), rng);
  nn::Tensor x(static_cast<int>(state.range(0)), 23), y, hidden;
  for (auto& v : x.d) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    mlp.infer(ps.data(), x, y, hidden);
    benchmark::DoNotOptimize(y.d.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MlpInferFused)->Arg(2048)->Arg(8192);

void BM_DssInference(benchmark::State& state) {
  const auto& p = cached_problem(2000);
  const auto dec =
      partition::decompose_target_size(p.m.adj_ptr(), p.m.adj(), 350, 2, 7);
  const auto& nodes = dec.subdomains[0];
  std::vector<mesh::Point2> coords(nodes.size());
  std::vector<std::uint8_t> dirichlet(nodes.size());
  for (std::size_t l = 0; l < nodes.size(); ++l) {
    coords[l] = p.m.points()[nodes[l]];
    dirichlet[l] = p.prob.dirichlet[nodes[l]];
  }
  auto topo = gnn::build_topology(p.prob.A.principal_submatrix(nodes), coords,
                                  dirichlet);
  gnn::DssConfig cfg;
  cfg.iterations = static_cast<int>(state.range(0));
  cfg.latent = static_cast<int>(state.range(1));
  cfg.fast_inference = state.range(2) != 0;  // 1 = factorized, 0 = reference
  const gnn::DssModel model(cfg, 3);
  const auto cache =
      cfg.fast_inference
          ? std::make_unique<gnn::DssEdgeCache>(model.precompute_edges(*topo))
          : nullptr;
  gnn::GraphSample s;
  s.topo = topo;
  s.rhs.assign(topo->n, 1.0 / std::sqrt(static_cast<double>(topo->n)));
  gnn::DssWorkspace ws;
  std::vector<float> out;
  for (auto _ : state) {
    model.forward(s, cache.get(), ws, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DssInference)
    ->Args({5, 5, 1})
    ->Args({10, 10, 1})
    ->Args({20, 20, 1})
    ->Args({30, 10, 1})
    ->Args({10, 10, 0})
    ->Args({30, 10, 0});

void BM_AsmLuApply(benchmark::State& state) {
  const auto& p = cached_problem(static_cast<la::Index>(state.range(0)));
  const auto dec =
      partition::decompose_target_size(p.m.adj_ptr(), p.m.adj(), 350, 2, 7);
  precond::AdditiveSchwarz ddm(
      p.prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
      std::make_unique<partition::NicolaidesCoarseSpace>(p.prob.A, dec));
  std::vector<double> r(p.prob.b.size(), 1.0), z(r.size());
  const auto ws = ddm.make_workspace();
  for (auto _ : state) {
    ddm.apply(r, z, ws.get());
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_AsmLuApply)->Arg(2000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
