// Strategy interface for the ASM local solves (paper Eq. 6/7, right term).
// The two-level Schwarz preconditioner is agnostic to *how* the K local
// problems R_i A R_iᵀ v_i = R_i r are solved:
//   * CholeskySubdomainSolver — exact sparse factorization (paper's DDM-LU);
//   * GnnSubdomainSolver (src/core) — DSS inference (paper's DDM-GNN).
//
// Like Preconditioner, a set-up solver is immutable: solve_all and
// solve_all_block take all per-call scratch through a caller-owned Workspace
// so concurrent callers (many client threads sharing one prepared session)
// never race on shared buffers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "la/csr.hpp"
#include "la/multivector.hpp"
#include "la/skyline_cholesky.hpp"
#include "partition/decomposition.hpp"

namespace ddmgnn::precond {

class SubdomainSolver {
 public:
  /// Opaque per-caller scratch for solve_all/solve_all_block, created by
  /// make_workspace(). One workspace per concurrent caller; reusable across
  /// calls (steady state is allocation-free).
  class Workspace {
   public:
    virtual ~Workspace() = default;
  };

  virtual ~SubdomainSolver() = default;

  /// One-time setup with all local operators (A_i = R_i A R_iᵀ, index i
  /// matching dec.subdomains). Implementations may keep references. After
  /// setup the solver is immutable — the solve entry points are safe to call
  /// from many threads with distinct workspaces.
  virtual void setup(std::vector<la::CsrMatrix> local_matrices,
                     const partition::Decomposition& dec) = 0;

  /// Scratch factory; nullptr when the implementation needs none (its solve
  /// entry points then accept ws == nullptr).
  virtual std::unique_ptr<Workspace> make_workspace() const { return nullptr; }
  /// Estimated steady-state bytes of one warmed-up workspace.
  virtual std::size_t workspace_bytes() const { return 0; }

  /// Solve every local problem: z_loc[i] ≈ A_i⁻¹ r_loc[i]. Sizes match the
  /// subdomain node counts. Called once per preconditioner application with
  /// all K right-hand sides so implementations can batch (the paper batches
  /// all subdomains into DSS inferences on the GPU; here across threads).
  virtual void solve_all(const std::vector<std::vector<double>>& r_loc,
                         std::vector<std::vector<double>>& z_loc,
                         Workspace* ws) const = 0;

  /// Multi-RHS form: r_loc[i] / z_loc[i] are |subdomain i|×s blocks, one
  /// column per global right-hand side — the K×s batch of local problems of
  /// one block-preconditioner application. The default loops solve_all over
  /// columns; implementations override to amortize (factorization reuse for
  /// Cholesky, one disjoint-union DSS inference for the GNN). Overrides must
  /// stay column-equivalent to the looped default.
  virtual void solve_all_block(const std::vector<la::MultiVector>& r_loc,
                               std::vector<la::MultiVector>& z_loc,
                               Workspace* ws) const;

  virtual std::string name() const = 0;
  /// Whether each local solve is an SPD linear map of its input.
  virtual bool is_symmetric() const = 0;
};

/// Exact local solves via RCM-ordered skyline Cholesky (factored in parallel).
/// The factors are read-only at solve time; the sweeps work in the caller's
/// output buffers, and each OpenMP lane keeps its permuted copy in the
/// caller's workspace.
class CholeskySubdomainSolver final : public SubdomainSolver {
 public:
  void setup(std::vector<la::CsrMatrix> local_matrices,
             const partition::Decomposition& dec) override;
  std::unique_ptr<Workspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;
  void solve_all(const std::vector<std::vector<double>>& r_loc,
                 std::vector<std::vector<double>>& z_loc,
                 Workspace* ws) const override;
  /// Each factor is swept once per column back-to-back while its envelope is
  /// hot in cache — the factorization is reused across all s columns.
  void solve_all_block(const std::vector<la::MultiVector>& r_loc,
                       std::vector<la::MultiVector>& z_loc,
                       Workspace* ws) const override;
  std::string name() const override { return "lu"; }
  bool is_symmetric() const override { return true; }

 private:
  std::vector<std::unique_ptr<la::SkylineCholesky>> factors_;
};

}  // namespace ddmgnn::precond
