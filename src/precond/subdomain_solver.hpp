// Strategy interface for the ASM local solves (paper Eq. 6/7, right term).
// The two-level Schwarz preconditioner is agnostic to *how* the K local
// problems R_i A R_iᵀ v_i = R_i r are solved:
//   * CholeskySubdomainSolver — exact sparse factorization (paper's DDM-LU);
//   * GnnSubdomainSolver (src/core) — DSS inference (paper's DDM-GNN).
//
// A solver answers one (subdomain, column) task per call; AdditiveSchwarz
// owns the scheduling (one OpenMP loop over all K·s tasks of an apply, the
// CPU analogue of the paper's batched inference). Like Preconditioner, a
// set-up solver is immutable: solve takes all per-call scratch through a
// caller-owned Workspace — one per OpenMP lane — so concurrent callers (many
// client threads sharing one prepared session) never race on shared buffers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/csr.hpp"
#include "la/skyline_cholesky.hpp"
#include "partition/decomposition.hpp"

namespace ddmgnn::precond {

class SubdomainSolver {
 public:
  /// Opaque scratch of ONE lane (one thread's run of local solves), created
  /// by make_workspace(). Never shared between two simultaneous solves;
  /// reusable across calls (steady state is allocation-free).
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };

  virtual ~SubdomainSolver() = default;

  /// One-time setup with all local operators (A_i = R_i A R_iᵀ, index i
  /// matching dec.subdomains). Implementations may keep references. After
  /// setup the solver is immutable — solve is safe to call from many threads
  /// with distinct workspaces.
  virtual void setup(std::vector<la::CsrMatrix> local_matrices,
                     const partition::Decomposition& dec) = 0;

  /// One lane's scratch; nullptr when the implementation needs none (solve
  /// then accepts ws == nullptr).
  virtual std::unique_ptr<Workspace> make_workspace() const { return nullptr; }
  /// Estimated steady-state bytes of one warmed-up lane workspace.
  virtual std::size_t workspace_bytes() const { return 0; }

  /// z ≈ A_i⁻¹ r for subdomain i; r and z have |subdomain i| entries and
  /// must not alias.
  virtual void solve(la::Index i, std::span<const double> r,
                     std::span<double> z, Workspace* ws) const = 0;

  virtual std::string name() const = 0;
  /// Whether each local solve is an SPD linear map of its input.
  virtual bool is_symmetric() const = 0;
};

/// Exact local solves via RCM-ordered skyline Cholesky (factored in parallel).
/// The factors are read-only at solve time; the sweeps work in the caller's
/// output buffer, and the lane workspace holds the permuted copy.
class CholeskySubdomainSolver final : public SubdomainSolver {
 public:
  void setup(std::vector<la::CsrMatrix> local_matrices,
             const partition::Decomposition& dec) override;
  std::unique_ptr<Workspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;
  void solve(la::Index i, std::span<const double> r, std::span<double> z,
             Workspace* ws) const override;
  std::string name() const override { return "lu"; }
  bool is_symmetric() const override { return true; }

 private:
  std::vector<std::unique_ptr<la::SkylineCholesky>> factors_;
};

}  // namespace ddmgnn::precond
