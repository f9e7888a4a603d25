// The preconditioner table: a fixed, file-local map from the five names
// ("none", "jacobi", "ic0", "ddm-lu", "ddm-gnn", plus the alias "identity"
// for "none") to factories returning `std::unique_ptr<Preconditioner>`, so
// the choice of preconditioner is data (a config string) instead of
// call-site enum-switch code. Each entry also carries traits — whether its
// factory needs a domain decomposition, geometry or a trained DSS model —
// which is what SolverSession uses to decide how much setup to build. The
// default Krylov method follows the built operator's
// Preconditioner::is_symmetric() instead.
//
// The two Schwarz entries differ only in their local solver. Their coarse
// correction is chosen by PrecondContext::mg_levels alone: 0 = none
// (one-level, Eq. 6), 1 = Nicolaides (two-level, Eq. 7), >= 2 = a
// smoothed-aggregation V-cycle.
#pragma once

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
  /// smoothed-aggregation hierarchy of depth L applied as a V-cycle.
  /// Negative values are rejected.
  int mg_levels = 1;
  /// Seed for the hierarchy's power-iteration damping estimates.
  std::uint64_t seed = 0;
};

/// Static facts about a table entry, consulted *before* construction so the
/// session only builds the setup state a factory needs.
struct PrecondTraits {
  bool needs_decomposition = false;
  bool needs_model = false;
  /// Consumes node coordinates + a message-graph pattern (the GNN entries).
  bool needs_geometry = false;
};

/// Resolve an alias to its canonical table name. Every lookup below throws
/// ContractError listing the known names when `name` is not in the table.
std::string_view canonical_preconditioner_name(std::string_view name);
std::unique_ptr<Preconditioner> make_preconditioner(std::string_view name,
                                                    const PrecondContext& ctx);
const PrecondTraits& preconditioner_traits(std::string_view name);
/// Canonical names, sorted (aliases excluded).
std::vector<std::string> preconditioner_names();

}  // namespace ddmgnn::precond
