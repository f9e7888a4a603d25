// The coarse-correction seam of the Additive Schwarz preconditioner
// (paper Eq. 7, first term): anything that can add a coarse correction
//   z += B_c r
// to the fine-level vector. Two implementations exist: the classic one-shot
// NicolaidesCoarseSpace (dense K×K factor, the two-level method) and
// mg::VCycle (recursive smoothed-aggregation hierarchy, the L-level method).
//
// Contract: implementations are immutable after construction and apply_add
// allocates any scratch it needs per call, so one component may serve
// concurrent clients (the same rule as Preconditioner workspaces). A block
// Schwarz apply calls apply_add once per column, so block and single applies
// agree by construction.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace ddmgnn::partition {

class CoarseComponent {
 public:
  virtual ~CoarseComponent() = default;

  /// z += B_c r on the fine level.
  virtual void apply_add(std::span<const double> r, std::span<double> z)
      const = 0;

  virtual std::string name() const = 0;

  /// Whether B_c is symmetric positive (PCG-safe).
  virtual bool is_symmetric() const { return true; }

  /// Bytes retained after setup (factors, level operators, transfer ops).
  virtual std::size_t memory_bytes() const = 0;

  /// Bytes held in dense factorizations — the non-scalable part a deeper
  /// hierarchy shrinks; bench_weak_scaling reports this per level count.
  virtual std::size_t dense_factor_bytes() const = 0;
};

}  // namespace ddmgnn::partition
