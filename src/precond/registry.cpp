#include "precond/registry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
// The registry is the one place that knows every built-in, including the
// GNN-backed ones from src/core — a deliberate, contained layering exception
// so that callers get a complete name table from a single lookup point.
#include "core/gnn_subdomain_solver.hpp"
#include "mg/hierarchy.hpp"
#include "mg/vcycle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/coarse_space.hpp"
#include "partition/decomposition.hpp"
#include "precond/asm_precond.hpp"
#include "precond/ic0_precond.hpp"
#include "precond/subdomain_solver.hpp"

namespace ddmgnn::precond {

namespace {

const la::CsrMatrix& require_matrix(const PrecondContext& ctx) {
  DDMGNN_CHECK(ctx.A != nullptr, "preconditioner factory: context.A is null");
  return *ctx.A;
}

const partition::Decomposition& require_decomposition(
    const PrecondContext& ctx, std::string_view name) {
  DDMGNN_CHECK(ctx.dec != nullptr,
               std::string(name) + " requires a domain decomposition");
  return *ctx.dec;
}

std::unique_ptr<SubdomainSolver> make_gnn_local(const PrecondContext& ctx,
                                                std::string_view name) {
  DDMGNN_CHECK(ctx.model != nullptr,
               std::string(name) + " requires a trained DSS model");
  const la::CsrMatrix& A = require_matrix(ctx);
  DDMGNN_CHECK(ctx.coords.size() == static_cast<std::size_t>(A.rows()),
               std::string(name) +
                   " requires node coordinates (mesh points or synthetic "
                   "spectral coordinates), one per operator row");
  DDMGNN_CHECK(ctx.edge_pattern != nullptr &&
                   ctx.edge_pattern->rows() == A.rows(),
               std::string(name) +
                   " requires a message-graph pattern matching the operator");
  std::vector<std::uint8_t> dirichlet(ctx.dirichlet.begin(),
                                      ctx.dirichlet.end());
  if (dirichlet.empty()) dirichlet.assign(A.rows(), 0);
  core::GnnSubdomainSolver::Options opts;
  opts.refinement_steps = ctx.gnn_refinement_steps;
  opts.normalize_input = ctx.gnn_normalize;
  opts.adaptive_refinement = ctx.gnn_adaptive_refinement;
  opts.fp32_fallback = ctx.gnn_fp32_fallback;
  return std::make_unique<core::GnnSubdomainSolver>(
      *ctx.model,
      std::vector<mesh::Point2>(ctx.coords.begin(), ctx.coords.end()),
      std::move(dirichlet), *ctx.edge_pattern, opts);
}

// The coarse correction ctx.mg_levels selects: none at depth 0, the dense
// Nicolaides solve at depth 1, a smoothed-aggregation V/W-cycle built under
// the setup.hierarchy phase at depth >= 2.
std::unique_ptr<partition::CoarseComponent> make_coarse(
    const la::CsrMatrix& A, const partition::Decomposition& dec,
    const PrecondContext& ctx, std::string_view name) {
  DDMGNN_CHECK(ctx.mg_levels >= 0,
               std::string(name) + ": mg_levels must be >= 0, got " +
                   std::to_string(ctx.mg_levels));
  if (ctx.mg_levels == 0) return nullptr;
  if (ctx.mg_levels == 1) {
    static obs::Gauge& g =
        obs::Registry::instance().gauge("setup.coarse_space_seconds");
    obs::PhaseTimer t("setup.coarse_space", &g);
    return std::make_unique<partition::NicolaidesCoarseSpace>(A, dec);
  }
  DDMGNN_CHECK(ctx.mg_cycle == "v" || ctx.mg_cycle == "w",
               std::string(name) + ": mg_cycle must be 'v' or 'w', got '" +
                   ctx.mg_cycle + "'");
  DDMGNN_CHECK(ctx.mg_smoother == "jacobi" || ctx.mg_smoother == "chebyshev",
               std::string(name) +
                   ": mg_smoother must be 'jacobi' or 'chebyshev', got '" +
                   ctx.mg_smoother + "'");
  DDMGNN_CHECK(ctx.mg_smooth_steps >= 1,
               std::string(name) + ": mg_smooth_steps must be >= 1");
  static obs::Gauge& g =
      obs::Registry::instance().gauge("setup.hierarchy_seconds");
  obs::PhaseTimer t("setup.hierarchy", &g);
  mg::HierarchyOptions opts;
  opts.levels = ctx.mg_levels;
  opts.seed = ctx.seed;
  mg::CycleConfig cc;
  cc.w_cycle = ctx.mg_cycle == "w";
  cc.smoother = ctx.mg_smoother == "chebyshev" ? mg::Smoother::kChebyshev
                                               : mg::Smoother::kJacobi;
  cc.smooth_steps = ctx.mg_smooth_steps;
  return std::make_unique<mg::VCycle>(mg::build_hierarchy(A, dec, opts), cc);
}

std::unique_ptr<Preconditioner> make_schwarz(
    const PrecondContext& ctx, std::string_view name,
    std::unique_ptr<SubdomainSolver> local) {
  const la::CsrMatrix& A = require_matrix(ctx);
  const partition::Decomposition& dec = require_decomposition(ctx, name);
  auto coarse = make_coarse(A, dec, ctx, name);
  return std::make_unique<AdditiveSchwarz>(A, dec, std::move(local),
                                           std::move(coarse));
}

}  // namespace

PrecondRegistry::PrecondRegistry() {
  add("none", PrecondTraits{}, [](const PrecondContext& ctx) {
    require_matrix(ctx);
    return std::make_unique<IdentityPreconditioner>();
  });
  add("jacobi", PrecondTraits{}, [](const PrecondContext& ctx) {
    return std::make_unique<JacobiPreconditioner>(
        require_matrix(ctx).diagonal());
  });
  add("ic0", PrecondTraits{}, [](const PrecondContext& ctx) {
    return std::make_unique<Ic0Preconditioner>(require_matrix(ctx));
  });
  add("ddm-lu", PrecondTraits{.needs_decomposition = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-lu",
                            std::make_unique<CholeskySubdomainSolver>());
      });
  add("ddm-gnn",
      PrecondTraits{.needs_decomposition = true,
                    .needs_model = true,
                    .symmetric = false,
                    .needs_geometry = true},
      [](const PrecondContext& ctx) {
        return make_schwarz(ctx, "ddm-gnn", make_gnn_local(ctx, "ddm-gnn"));
      });
  add_alias("identity", "none");
}

PrecondRegistry& PrecondRegistry::instance() {
  static PrecondRegistry registry;
  return registry;
}

void PrecondRegistry::add(std::string name, PrecondTraits traits,
                          PrecondFactory factory) {
  DDMGNN_CHECK(!contains(name),
               "preconditioner '" + name + "' is already registered");
  entries_.push_back(Entry{std::move(name), traits, std::move(factory)});
}

void PrecondRegistry::add_alias(std::string alias, std::string canonical) {
  DDMGNN_CHECK(!contains(alias),
               "preconditioner alias '" + alias + "' is already registered");
  find(canonical);  // validates the target exists
  aliases_.emplace_back(std::move(alias), std::move(canonical));
}

const PrecondRegistry::Entry& PrecondRegistry::find(
    std::string_view name) const {
  std::string_view resolved = name;
  for (const auto& [alias, canonical] : aliases_) {
    if (alias == name) {
      resolved = canonical;
      break;
    }
  }
  for (const Entry& e : entries_) {
    if (e.name == resolved) return e;
  }
  std::ostringstream msg;
  msg << "unknown preconditioner '" << name << "'; registered:";
  for (const std::string& n : names()) msg << " " << n;
  DDMGNN_CHECK(false, msg.str());
  std::abort();  // unreachable: DDMGNN_CHECK(false) throws
}

bool PrecondRegistry::contains(std::string_view name) const {
  for (const auto& [alias, canonical] : aliases_) {
    if (alias == name) return true;
  }
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const std::string& PrecondRegistry::canonical(std::string_view name) const {
  return find(name).name;
}

const PrecondTraits& PrecondRegistry::traits(std::string_view name) const {
  return find(name).traits;
}

std::unique_ptr<Preconditioner> PrecondRegistry::create(
    std::string_view name, const PrecondContext& ctx) const {
  return find(name).factory(ctx);
}

std::vector<std::string> PrecondRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx) {
  return PrecondRegistry::instance().create(name, ctx);
}

const PrecondTraits& preconditioner_traits(std::string_view name) {
  return PrecondRegistry::instance().traits(name);
}

std::vector<std::string> preconditioner_names() {
  return PrecondRegistry::instance().names();
}

}  // namespace ddmgnn::precond
