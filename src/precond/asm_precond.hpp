// Multi-level Additive Schwarz preconditioner (paper §II-A):
//
//   one-level:  M⁻¹ = Σ_i R_iᵀ (R_i A R_iᵀ)⁻¹ R_i                     (Eq. 6)
//   two-level:  M⁻¹ = R0ᵀ(R0 A R0ᵀ)⁻¹R0 + Σ_i R_iᵀ(R_i A R_iᵀ)⁻¹R_i   (Eq. 7)
//
// The first term is a pluggable CoarseComponent, so the same class also
// serves the multi-level method (an mg::VCycle in place of the one-shot
// Nicolaides solve).
//
// With a CholeskySubdomainSolver this is the paper's DDM-LU; with the GNN
// subdomain solver from src/core it is DDM-GNN (which additionally applies
// the residual-normalization of §III-A inside the solver). Local solves run
// in parallel; the coarse correction is the scalability term.
//
// A constructed AdditiveSchwarz is immutable: every per-application buffer
// (local restrictions, block scratch, the subdomain solver's scratch) lives
// in the caller-owned ApplyWorkspace, so concurrent threads can apply one
// shared instance safely.
#pragma once

#include <memory>

#include "la/csr.hpp"
#include "partition/coarse_component.hpp"
#include "partition/decomposition.hpp"
#include "precond/preconditioner.hpp"
#include "precond/subdomain_solver.hpp"

namespace ddmgnn::precond {

class AdditiveSchwarz final : public Preconditioner {
 public:
  /// `dec` must outlive the preconditioner. Extracts all R_i A R_iᵀ blocks
  /// and hands them to `local_solver` for setup. `coarse` is the coarse
  /// correction: nullptr for the one-level method (Eq. 6), a
  /// NicolaidesCoarseSpace for the two-level one (Eq. 7), an mg::VCycle for
  /// the multi-level one.
  AdditiveSchwarz(const la::CsrMatrix& a, const partition::Decomposition& dec,
                  std::unique_ptr<SubdomainSolver> local_solver,
                  std::unique_ptr<partition::CoarseComponent> coarse);

  using Preconditioner::apply;
  using Preconditioner::apply_many;

  /// Per-caller scratch: the K local restriction/correction vectors (sized
  /// eagerly — apply never allocates in steady state), the block-path
  /// MultiVectors (resized to the live column count), and the subdomain
  /// solver's own workspace.
  std::unique_ptr<ApplyWorkspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;

  void apply(std::span<const double> r, std::span<double> z,
             ApplyWorkspace* ws) const override;
  /// Block application: restrict all s columns at once, hand the subdomain
  /// solver a single K×s batch of local right-hand sides (one disjoint-union
  /// DSS inference for the GNN solver), and push the coarse correction
  /// through one multi-column backsolve.
  void apply_many(const la::MultiVector& r, la::MultiVector& z,
                  ApplyWorkspace* ws) const override;
  std::string name() const override;
  bool is_symmetric() const override {
    return solver_->is_symmetric() &&
           (coarse_ == nullptr || coarse_->is_symmetric());
  }

  const SubdomainSolver& local_solver() const { return *solver_; }
  /// The coarse correction in use (nullptr for the one-level method).
  const partition::CoarseComponent* coarse_component() const {
    return coarse_.get();
  }

 private:
  struct Scratch;
  Scratch& scratch_of(ApplyWorkspace* ws) const;

  const partition::Decomposition* dec_;
  std::unique_ptr<SubdomainSolver> solver_;
  std::unique_ptr<partition::CoarseComponent> coarse_;
};

}  // namespace ddmgnn::precond
