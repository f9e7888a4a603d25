#include "precond/registry.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
// The table is the one place that knows every preconditioner, including the
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
// Nicolaides solve at depth 1, a smoothed-aggregation V-cycle built under
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
  static obs::Gauge& g =
      obs::Registry::instance().gauge("setup.hierarchy_seconds");
  obs::PhaseTimer t("setup.hierarchy", &g);
  mg::HierarchyOptions opts;
  opts.levels = ctx.mg_levels;
  opts.seed = ctx.seed;
  return std::make_unique<mg::VCycle>(mg::build_hierarchy(A, dec, opts));
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

using Factory = std::unique_ptr<Preconditioner> (*)(const PrecondContext&);

struct Entry {
  std::string_view name;
  PrecondTraits traits;
  Factory make;
};

// Sorted by name: preconditioner_names() lists them in table order.
constexpr Entry kTable[] = {
    {"ddm-gnn",
     {.needs_decomposition = true,
      .needs_model = true,
      .needs_geometry = true},
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-gnn", make_gnn_local(ctx, "ddm-gnn"));
     }},
    {"ddm-lu", {.needs_decomposition = true},
     [](const PrecondContext& ctx) {
       return make_schwarz(ctx, "ddm-lu",
                           std::make_unique<CholeskySubdomainSolver>());
     }},
    {"ic0", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       return std::make_unique<Ic0Preconditioner>(require_matrix(ctx));
     }},
    {"jacobi", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       return std::make_unique<JacobiPreconditioner>(
           require_matrix(ctx).diagonal());
     }},
    {"none", {},
     [](const PrecondContext& ctx) -> std::unique_ptr<Preconditioner> {
       require_matrix(ctx);
       return std::make_unique<IdentityPreconditioner>();
     }},
};

constexpr std::pair<std::string_view, std::string_view> kAliases[] = {
    {"identity", "none"}};

const Entry& lookup(std::string_view name) {
  std::string_view resolved = name;
  for (const auto& [alias, canonical] : kAliases) {
    if (alias == name) resolved = canonical;
  }
  for (const Entry& e : kTable) {
    if (e.name == resolved) return e;
  }
  std::ostringstream msg;
  msg << "unknown preconditioner '" << name << "'; known:";
  for (const Entry& e : kTable) msg << " " << e.name;
  DDMGNN_CHECK(false, msg.str());
  std::abort();  // unreachable: DDMGNN_CHECK(false) throws
}

}  // namespace

std::string_view canonical_preconditioner_name(std::string_view name) {
  return lookup(name).name;
}

std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx) {
  return lookup(name).make(ctx);
}

const PrecondTraits& preconditioner_traits(std::string_view name) {
  return lookup(name).traits;
}

std::vector<std::string> preconditioner_names() {
  std::vector<std::string> out;
  for (const Entry& e : kTable) out.emplace_back(e.name);
  return out;
}

}  // namespace ddmgnn::precond
