// Preconditioner interface M⁻¹: maps a residual r to a correction z
// (Algorithm 1's red lines). Implementations: Identity, Jacobi, IC(0),
// one-/two-level Additive Schwarz with pluggable subdomain solvers (exact
// Cholesky = the paper's DDM-LU; DSS GNN = the paper's DDM-GNN).
//
// Concurrency contract: a prepared preconditioner is immutable — apply and
// apply_many never touch shared mutable state, so any number of threads may
// apply the SAME preconditioner concurrently (one prepared SolverSession
// serving many clients is the paper's amortize-setup-over-solves economics
// at serving scale). All per-application scratch lives in a caller-owned
// ApplyWorkspace: create one per concurrent caller with make_workspace(),
// reuse it across applications (a Krylov solve holds one for its whole
// duration, so steady state is allocation-free), and never share one
// workspace between two simultaneous calls.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/multivector.hpp"

namespace ddmgnn::precond {

/// Opaque per-caller scratch for Preconditioner::apply/apply_many. Obtained
/// from make_workspace() of the preconditioner it is used with; holds every
/// buffer an application mutates (local restrictions, DSS inference
/// tensors). A workspace belongs to exactly one in-flight application at a
/// time.
class ApplyWorkspace {
 public:
  virtual ~ApplyWorkspace() = default;
};

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Create scratch for apply/apply_many: one workspace per concurrent
  /// caller, reusable across applications. Implementations without scratch
  /// return nullptr, and their apply accepts ws == nullptr.
  virtual std::unique_ptr<ApplyWorkspace> make_workspace() const {
    return nullptr;
  }

  /// Estimated steady-state bytes one workspace occupies once warmed up
  /// (SolverSession::memory_bytes counts one concurrent solve's worth so the
  /// SessionCache byte budget sees the scratch, not just the prepared state).
  virtual std::size_t workspace_bytes() const { return 0; }

  /// z = M⁻¹ r. Must not alias. `ws` must come from make_workspace() of this
  /// object (nullptr only for implementations that return nullptr there).
  /// Thread-safe for concurrent callers holding distinct workspaces.
  virtual void apply(std::span<const double> r, std::span<double> z,
                     ApplyWorkspace* ws) const = 0;

  /// Z = M⁻¹ R column-wise for a block of s residuals. The default loops
  /// apply(); AdditiveSchwarz overrides it to run all K·s local solves in
  /// one parallel region. Every override must stay column-equivalent to the
  /// looped default.
  virtual void apply_many(const la::MultiVector& r, la::MultiVector& z,
                          ApplyWorkspace* ws) const {
    for (la::Index j = 0; j < r.cols(); ++j) apply(r.col(j), z.col(j), ws);
  }

  /// Convenience forms for one-off applications (tests, examples): allocate
  /// a fresh workspace per call. Correct from any thread, but hot loops
  /// should hold a workspace and call the explicit forms instead.
  void apply(std::span<const double> r, std::span<double> z) const {
    const std::unique_ptr<ApplyWorkspace> ws = make_workspace();
    apply(r, z, ws.get());
  }
  void apply_many(const la::MultiVector& r, la::MultiVector& z) const {
    const std::unique_ptr<ApplyWorkspace> ws = make_workspace();
    apply_many(r, z, ws.get());
  }

  virtual std::string name() const = 0;

  /// True when M⁻¹ is symmetric positive definite — plain PCG is then safe;
  /// otherwise the hybrid solver switches to flexible PCG.
  virtual bool is_symmetric() const { return true; }
};

/// z = r.
class IdentityPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::apply;
  void apply(std::span<const double> r, std::span<double> z,
             ApplyWorkspace*) const override {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i];
  }
  std::string name() const override { return "none"; }
};

/// z = diag(A)⁻¹ r.
class JacobiPreconditioner final : public Preconditioner {
 public:
  using Preconditioner::apply;
  explicit JacobiPreconditioner(std::vector<double> diagonal);
  void apply(std::span<const double> r, std::span<double> z,
             ApplyWorkspace*) const override;
  std::string name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
};

}  // namespace ddmgnn::precond
