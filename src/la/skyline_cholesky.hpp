// Envelope ("skyline") Cholesky factorization of SPD CSR matrices, with an
// optional RCM pre-ordering. This is the library's sparse direct solver — the
// drop-in for Eigen's SparseLU in the paper's DDM-LU preconditioner (all
// matrices factored there are SPD, so Cholesky is exact LU up to symmetry).
//
// Storage: row i keeps the contiguous value range [first[i], i]; RCM keeps
// that envelope narrow on FEM meshes. Factorization cost is O(sum of row
// envelope lengths squared) ~ O(N·b²) for bandwidth b.
#pragma once

#include <span>
#include <vector>

#include "la/csr.hpp"

namespace ddmgnn::la {

class SkylineCholesky {
 public:
  /// Factor `a` (must be symmetric positive definite). If `use_rcm`, rows are
  /// permuted with reverse Cuthill–McKee before factorization.
  explicit SkylineCholesky(const CsrMatrix& a, bool use_rcm = true);

  /// Caller-owned sweep buffers: the permuted copy of the right-hand side
  /// (fp64 or fp32). Sized on first use and reused, so repeated solves
  /// through one Scratch allocate nothing. One per concurrent caller.
  struct Scratch {
    std::vector<double> y;
    std::vector<float> y32;
  };

  /// Solve A x = b.
  std::vector<double> solve(std::span<const double> b) const;
  void solve_inplace(std::span<double> b_to_x, Scratch& scratch) const;

  /// Materialize a float copy of the factor for solve_inplace_fp32. The fp64
  /// factor stays authoritative; the fp32 sweeps halve the factor traffic of
  /// a triangular solve, which is what a mixed-precision preconditioner apply
  /// (SolveOptions::precond_fp32) actually spends its time on. Idempotent.
  void enable_fp32();
  bool fp32_enabled() const { return !values_f32_.empty(); }

  /// Forward/backward sweeps over the fp32 factor copy (requires
  /// enable_fp32). Accepts and returns fp64 with ~1e-7 relative accuracy —
  /// callers must sit inside a flexible outer iteration or behind a
  /// true-residual guard.
  void solve_inplace_fp32(std::span<double> b_to_x, Scratch& scratch) const;

  Index size() const { return n_; }
  /// Stored envelope entries (memory/diagnostics).
  std::size_t envelope_size() const { return values_.size(); }

 private:
  Index n_ = 0;
  std::vector<Index> perm_;      // new -> old (empty = identity)
  std::vector<Index> inv_perm_;  // old -> new
  std::vector<Index> first_;     // first stored column of each row
  std::vector<std::size_t> offset_;  // start of row i's envelope in values_
  std::vector<double> values_;       // packed rows [first[i], i]
  std::vector<float> values_f32_;    // optional fp32 factor copy
};

}  // namespace ddmgnn::la
