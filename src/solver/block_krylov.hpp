// Block-Krylov solvers: the iteration layer of the batched multi-RHS solve
// engine. Both methods advance ALL right-hand sides per iteration so every
// A·P becomes one SpMM and every M⁻¹·R one block preconditioner application
// (for the Schwarz preconditioners: all K×s local solves in one parallel
// region). Columns converge at their own rates and are deflated out of the
// working block as they finish. A column stops exactly where the scalar
// drivers stop — once `rnorm > stop` is false — so a non-finite column
// (e.g. a NaN right-hand side) retires at once, unconverged, with failure
// "nan", instead of holding the block until max_iterations.
//
// Two methods, with deliberately different semantics:
//
//  * block_pcg — LOCKSTEP independent recurrences. Each column runs exactly
//    the scalar pcg() arithmetic (same kernels, same order), columns only
//    share the fused SpMM / block-preconditioner calls. Iteration counts and
//    iterates are bit-identical to solving each RHS alone (tested). Use with
//    fixed SPD preconditioners; the win is amortized memory traffic, not
//    fewer iterations.
//
//  * block_flexible_pcg — SHARED search space. Each iteration
//    A-orthonormalizes the s preconditioned residuals into one direction
//    block and minimizes every column's A-norm error over all of them, so
//    each column benefits from the directions generated for the others and
//    typically converges in substantially fewer iterations than scalar
//    fpcg — this is where the block apply pays (fewer iterations, each
//    running all K×s local solves in one parallel region). Nonlinear
//    preconditioners (the GNN) are handled flexibly: conjugation against a
//    bounded window of stored direction blocks, stagnation detection, and a
//    per-column true-residual verification with scalar-fpcg fallback as the
//    correctness net.
#pragma once

#include <vector>

#include "la/multivector.hpp"
#include "solver/krylov.hpp"

namespace ddmgnn::solver {

/// Lockstep block PCG (see file header). `b` is n×s, `x` holds the initial
/// guesses and the solutions. Returns one SolveResult per column;
/// result.iterations counts the iterations until THAT column converged.
std::vector<SolveResult> block_pcg(const CsrMatrix& a,
                                   const precond::Preconditioner& m,
                                   const la::MultiVector& b,
                                   la::MultiVector& x,
                                   const SolveOptions& opts = {});

/// Shared-subspace flexible block PCG (see file header). result.iterations
/// counts BLOCK iterations until that column converged; every returned
/// converged flag is backed by a recomputed true residual.
std::vector<SolveResult> block_flexible_pcg(const CsrMatrix& a,
                                            const precond::Preconditioner& m,
                                            const la::MultiVector& b,
                                            la::MultiVector& x,
                                            const SolveOptions& opts = {});

/// Block dispatch mirroring run_krylov: kPcg → block_pcg, kFpcg →
/// block_flexible_pcg, kCg → block_pcg with the identity preconditioner
/// (bit-identical to scalar CG per column, which runs the same recurrence).
std::vector<SolveResult> run_block_krylov(
    KrylovMethod method, const CsrMatrix& a, const precond::Preconditioner& m,
    const la::MultiVector& b, la::MultiVector& x,
    const SolveOptions& opts = {});

}  // namespace ddmgnn::solver
