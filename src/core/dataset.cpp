#include "core/dataset.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fem/poisson.hpp"
#include "gnn/graph.hpp"
#include "la/vector_ops.hpp"
#include "mesh/generator.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::core {

namespace {

/// Decorator that records normalized local residuals on every application of
/// the wrapped ASM preconditioner — the dataset extraction hook of §IV-A.
class RecordingPreconditioner final : public precond::Preconditioner {
 public:
  RecordingPreconditioner(
      const precond::Preconditioner& inner,
      const partition::Decomposition& dec,
      const std::vector<std::shared_ptr<gnn::GraphTopology>>& topologies,
      std::vector<gnn::GraphSample>& sink, std::size_t max_samples)
      : inner_(inner), dec_(dec), topologies_(topologies), sink_(sink),
        max_samples_(max_samples) {}

  using precond::Preconditioner::apply;
  std::unique_ptr<precond::ApplyWorkspace> make_workspace() const override {
    return inner_.make_workspace();  // recording itself needs no scratch
  }
  void apply(std::span<const double> r, std::span<double> z,
             precond::ApplyWorkspace* ws) const override {
    for (la::Index i = 0; i < dec_.num_parts; ++i) {
      if (sink_.size() >= max_samples_) break;
      std::vector<double> r_loc(dec_.subdomains[i].size());
      dec_.restrict_to(i, r, r_loc);
      const double norm = la::norm2(r_loc);
      if (norm <= 0.0) continue;
      gnn::GraphSample s;
      s.topo = topologies_[i];
      const double inv = 1.0 / norm;
      s.rhs.resize(r_loc.size());
      for (std::size_t l = 0; l < r_loc.size(); ++l) s.rhs[l] = r_loc[l] * inv;
      sink_.push_back(std::move(s));
    }
    inner_.apply(r, z, ws);
  }

  std::string name() const override { return inner_.name() + "+record"; }
  bool is_symmetric() const override { return inner_.is_symmetric(); }

 private:
  const precond::Preconditioner& inner_;
  const partition::Decomposition& dec_;
  const std::vector<std::shared_ptr<gnn::GraphTopology>>& topologies_;
  std::vector<gnn::GraphSample>& sink_;
  std::size_t max_samples_;
};

}  // namespace

DssDataset generate_dataset(const DatasetConfig& cfg) {
  std::vector<gnn::GraphSample> all;
  for (int p = 0; p < cfg.num_global_problems; ++p) {
    const std::uint64_t seed = cfg.seed + 7919u * static_cast<std::uint64_t>(p);
    const mesh::Domain dom = mesh::random_domain(seed);
    const mesh::Mesh m =
        mesh::generate_mesh_target_nodes(dom, cfg.mesh_target_nodes, seed);
    const fem::QuadraticData data = fem::sample_quadratic_data(seed);
    const auto prob = fem::assemble_poisson(
        m, [&](const mesh::Point2& q) { return data.f(q); },
        [&](const mesh::Point2& q) { return data.g(q); });
    const auto dec = partition::decompose_target_size(
        m.adj_ptr(), m.adj(), cfg.subdomain_target_nodes, cfg.overlap, seed);

    // Subdomain graph topologies (shared by all samples of this problem).
    const la::CsrMatrix mesh_pattern =
        gnn::adjacency_pattern(m.adj_ptr(), m.adj());
    std::vector<std::shared_ptr<gnn::GraphTopology>> topologies(dec.num_parts);
    for (la::Index i = 0; i < dec.num_parts; ++i) {
      const auto& nodes = dec.subdomains[i];
      std::vector<mesh::Point2> coords(nodes.size());
      std::vector<std::uint8_t> dirichlet(nodes.size());
      for (std::size_t l = 0; l < nodes.size(); ++l) {
        coords[l] = m.points()[nodes[l]];
        dirichlet[l] = prob.dirichlet[nodes[l]];
      }
      const la::CsrMatrix local_pattern =
          mesh_pattern.principal_submatrix(nodes);
      topologies[i] = gnn::build_topology(prob.A.principal_submatrix(nodes),
                                          coords, dirichlet, &local_pattern);
    }

    precond::AdditiveSchwarz ddm_lu(
        prob.A, dec, std::make_unique<precond::CholeskySubdomainSolver>(),
        std::make_unique<partition::NicolaidesCoarseSpace>(prob.A, dec));
    RecordingPreconditioner recorder(ddm_lu, dec, topologies, all,
                                     cfg.max_samples);
    std::vector<double> x(prob.b.size(), 0.0);
    solver::SolveOptions opts;
    opts.rel_tol = cfg.pcg_rel_tol;
    opts.max_iterations = 500;
    solver::pcg(prob.A, recorder, prob.b, x, opts);
    if (all.size() >= cfg.max_samples) break;
  }
  DDMGNN_CHECK(!all.empty(), "generate_dataset: produced no samples");

  // Deterministic shuffle, then 60/20/20 split (paper: 70282/23428/23428).
  Rng rng(cfg.seed ^ 0xC2B2AE3D27D4EB4Full);
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.uniform_index(i + 1)]);
  }
  DssDataset out;
  const std::size_t n_train = (all.size() * 6) / 10;
  const std::size_t n_val = (all.size() * 2) / 10;
  out.train.assign(std::make_move_iterator(all.begin()),
                   std::make_move_iterator(all.begin() + n_train));
  out.validation.assign(
      std::make_move_iterator(all.begin() + n_train),
      std::make_move_iterator(all.begin() + n_train + n_val));
  out.test.assign(std::make_move_iterator(all.begin() + n_train + n_val),
                  std::make_move_iterator(all.end()));
  return out;
}

}  // namespace ddmgnn::core
