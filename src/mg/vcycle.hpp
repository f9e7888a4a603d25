// Recursive V-cycle over a smoothed-aggregation Hierarchy, applied as the
// CoarseComponent of Additive Schwarz:
//   z += P0 · cycle(level 1 …) · P0ᵀ r
// Intermediate levels run one damped-Jacobi sweep before and one after the
// coarse correction (symmetric, so the cycle operator stays SPD and
// PCG-safe); the coarsest level is solved by the dense Cholesky factor.
// There is no fine-grid smoother here by design: in the ASM sum the local
// subdomain solves (exact Cholesky, or DSS inference for ddm-gnn) ARE the
// fine-level smoothing — the hierarchy only replaces the one-shot coarse
// solve.
//
// Concurrency: immutable after construction; every apply allocates its own
// per-level scratch, so one VCycle serves concurrent clients (the standard
// CoarseComponent contract). Applies are bitwise-deterministic at any thread
// count (SpMV + elementwise updates + dense backsolves only).
#pragma once

#include "mg/hierarchy.hpp"
#include "partition/coarse_component.hpp"

namespace ddmgnn::mg {

class VCycle final : public partition::CoarseComponent {
 public:
  explicit VCycle(Hierarchy hierarchy);

  void apply_add(std::span<const double> r, std::span<double> z)
      const override;

  std::string name() const override { return "mg-vcycle"; }
  std::size_t memory_bytes() const override { return h_.memory_bytes(); }
  std::size_t dense_factor_bytes() const override {
    return h_.dense_factor_bytes();
  }

  const Hierarchy& hierarchy() const { return h_; }

 private:
  // e ← cycle approximation of A_lvl⁻¹ r (e is overwritten).
  void cycle(int lvl, std::span<const double> r, std::span<double> e) const;
  // One damped-Jacobi sweep x += ω D⁻¹ (b − A x).
  static void smooth(const CoarseLevel& level, std::span<const double> b,
                     std::span<double> x);

  Hierarchy h_;
};

}  // namespace ddmgnn::mg
