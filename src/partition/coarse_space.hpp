// Nicolaides coarse space for the two-level Additive Schwarz preconditioner
// (paper Eq. 7, first term). R0 is K×N with row i carrying the partition-of-
// unity weights of subdomain i; the K×K coarse operator R0·A·R0ᵀ is factored
// once (dense Cholesky — it is SPD) and applied every PCG iteration:
//   z += R0ᵀ (R0 A R0ᵀ)⁻¹ R0 r                                    (Eq. 13)
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "la/csr.hpp"
#include "la/dense.hpp"
#include "partition/coarse_component.hpp"
#include "partition/decomposition.hpp"

namespace ddmgnn::partition {

class NicolaidesCoarseSpace final : public CoarseComponent {
 public:
  NicolaidesCoarseSpace(const la::CsrMatrix& a, const Decomposition& dec);

  /// rc = R0 r  (K values).
  std::vector<double> restrict_residual(std::span<const double> r) const;

  /// z += R0ᵀ (R0 A R0ᵀ)⁻¹ R0 r.
  void apply_add(std::span<const double> r, std::span<double> z) const override;

  std::string name() const override { return "nicolaides"; }
  std::size_t memory_bytes() const override;
  std::size_t dense_factor_bytes() const override;

  Index num_parts() const { return dec_->num_parts; }
  const la::DenseMatrix& coarse_matrix() const { return coarse_; }

 private:
  const Decomposition* dec_;
  la::DenseMatrix coarse_;  // R0 A R0ᵀ, kept for tests
  std::unique_ptr<la::DenseCholesky> factor_;
  // R0 in CSC-by-node layout: for each node, the (part, weight) memberships.
  std::vector<Offset> node_ptr_;
  std::vector<Index> node_part_;
  std::vector<double> node_weight_;
};

}  // namespace ddmgnn::partition
