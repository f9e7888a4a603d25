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
// apply and apply_many run one body: restrict every column, solve the K·s
// (subdomain, column) local problems in one OpenMP loop, prolong, then add
// the coarse correction column by column. Each column of a block apply
// therefore runs exactly the code of a single apply.
//
// A constructed AdditiveSchwarz is immutable: every per-application buffer
// (local restrictions, one subdomain-solver workspace per OpenMP lane) lives
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

  /// Per-caller scratch: the K local restriction/correction buffers and one
  /// subdomain-solver workspace per OpenMP lane. Both grow on first use (to
  /// the widest block applied and to the team size), so steady state never
  /// allocates.
  std::unique_ptr<ApplyWorkspace> make_workspace() const override;
  std::size_t workspace_bytes() const override;

  void apply(std::span<const double> r, std::span<double> z,
             ApplyWorkspace* ws) const override;
  /// Block application: all K·s local solves of the s columns run in one
  /// parallel region.
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
  /// The shared body: `r` and `z` hold s columns of n entries back to back
  /// (a MultiVector's storage, or one vector for s == 1).
  void apply_columns(std::span<const double> r, std::span<double> z,
                     la::Index s, Scratch& scratch) const;

  const partition::Decomposition* dec_;
  std::unique_ptr<SubdomainSolver> solver_;
  std::unique_ptr<partition::CoarseComponent> coarse_;
};

}  // namespace ddmgnn::precond
