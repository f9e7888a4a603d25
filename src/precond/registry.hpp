// String-keyed preconditioner registry: maps names ("none", "jacobi", "ic0",
// "ddm-lu", "ddm-gnn") to factories returning
// `std::unique_ptr<Preconditioner>`, so the choice of preconditioner is data
// (a config string) instead of call-site enum-switch code. The registry also
// carries per-entry traits — whether a factory needs a domain decomposition
// or a trained DSS model, and whether the resulting operator is symmetric —
// which is what SolverSession uses to decide how much setup to build and
// which Krylov method is safe by default.
//
// The two Schwarz entries differ only in their local solver. Their coarse
// correction is chosen by PrecondContext::mg_levels alone: 0 = none
// (one-level, Eq. 6), 1 = Nicolaides (two-level, Eq. 7), >= 2 = a
// smoothed-aggregation V/W-cycle.
//
// Built-in names are registered on first use; callers may add their own
// factories (e.g. a multigrid or a new learned preconditioner) under fresh
// names and select them through the same `HybridConfig::preconditioner`
// string without touching the solver core.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "la/csr.hpp"
#include "precond/preconditioner.hpp"

// The GNN factories need a trained model; forward-declared so this header
// stays light (registry.cpp sees the full types).
namespace ddmgnn::gnn {
class DssModel;
}
namespace ddmgnn::partition {
struct Decomposition;
}
namespace ddmgnn::mesh {
struct Point2;
}

namespace ddmgnn::precond {

/// Everything a factory may consume. `A` is always required; the rest is
/// optional and validated by the factory itself (with a readable error)
/// according to its traits. Geometry is deliberately generic — node
/// positions plus a message-graph pattern — so the same factories serve both
/// the mesh setup path (mesh points + mesh adjacency) and the matrix-first
/// path (synthetic spectral coordinates + matrix adjacency).
struct PrecondContext {
  const la::CsrMatrix* A = nullptr;
  /// Overlapping decomposition — required when traits.needs_decomposition.
  /// Must outlive the returned preconditioner.
  const partition::Decomposition* dec = nullptr;
  /// Node positions (one per row of A) — required when traits.needs_geometry.
  /// Copied by the factories; need only live through create().
  std::span<const mesh::Point2> coords;
  /// Message-graph pattern (mesh adjacency or matrix adjacency as a unit
  /// CSR) — required when traits.needs_geometry. Copied by the factories.
  const la::CsrMatrix* edge_pattern = nullptr;
  /// Dirichlet flags (identity rows); empty means none.
  std::span<const std::uint8_t> dirichlet;
  /// Trained DSS model — required when traits.needs_model. Must outlive the
  /// returned preconditioner.
  const gnn::DssModel* model = nullptr;
  /// GNN local-solver knobs (see GnnSubdomainSolver::Options).
  int gnn_refinement_steps = 0;
  bool gnn_normalize = true;
  /// Refine-until-contractive setup with exact-Cholesky fallback for
  /// non-contractive subdomains (the served-configuration convergence fix).
  bool gnn_adaptive_refinement = false;
  /// fp32 sweeps for the Cholesky fallbacks (mixed-precision apply; pair
  /// with SolveOptions::precond_fp32 on the outer Krylov).
  bool gnn_fp32_fallback = false;
  /// Coarse correction of the Schwarz entries: 0 = none (one-level), 1 =
  /// the dense Nicolaides solve (two-level, the default), L >= 2 = a
  /// smoothed-aggregation hierarchy of depth L applied as a V/W-cycle.
  /// Negative values are rejected. The cycle knobs below only apply at
  /// L >= 2.
  int mg_levels = 1;
  std::string mg_cycle = "v";        // "v" | "w"
  std::string mg_smoother = "jacobi";  // "jacobi" | "chebyshev"
  int mg_smooth_steps = 1;
  /// Seed for the hierarchy's power-iteration damping estimates.
  std::uint64_t seed = 0;
};

/// Static facts about a registered preconditioner, consulted *before*
/// construction so the session only builds the setup state a factory needs.
struct PrecondTraits {
  bool needs_decomposition = false;
  bool needs_model = false;
  /// False for learned/nonlinear operators: plain PCG is then unsafe and the
  /// session defaults to flexible PCG.
  bool symmetric = true;
  /// Consumes node coordinates + a message-graph pattern (the GNN entries).
  bool needs_geometry = false;
  /// Whether setup can run from a bare assembled operator
  /// (SolverSession::setup(A, cfg)): everything the factory needs is either
  /// in the matrix or synthesizable from its graph. Entries registered with
  /// false are mesh-bound and the matrix-first path refuses them.
  bool supports_algebraic = true;
};

using PrecondFactory =
    std::function<std::unique_ptr<Preconditioner>(const PrecondContext&)>;

class PrecondRegistry {
 public:
  /// Process-wide registry, built-ins pre-registered.
  static PrecondRegistry& instance();

  /// Register a factory under `name`. Throws ContractError on duplicates.
  void add(std::string name, PrecondTraits traits, PrecondFactory factory);
  /// Register `alias` as another spelling of the existing `canonical` name.
  void add_alias(std::string alias, std::string canonical);

  bool contains(std::string_view name) const;
  /// Resolve aliases to the canonical name. Throws ContractError listing the
  /// known names when `name` is not registered.
  const std::string& canonical(std::string_view name) const;
  const PrecondTraits& traits(std::string_view name) const;
  std::unique_ptr<Preconditioner> create(std::string_view name,
                                         const PrecondContext& ctx) const;
  /// Canonical names, sorted (aliases excluded).
  std::vector<std::string> names() const;

 private:
  PrecondRegistry();

  struct Entry {
    std::string name;
    PrecondTraits traits;
    PrecondFactory factory;
  };
  const Entry& find(std::string_view name) const;

  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> aliases_;
};

/// Convenience wrappers over PrecondRegistry::instance().
std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx);
const PrecondTraits& preconditioner_traits(std::string_view name);
std::vector<std::string> preconditioner_names();

}  // namespace ddmgnn::precond
