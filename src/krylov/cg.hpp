// Preconditioned Conjugate Gradient — the paper's baseline for symmetric
// positive definite systems ("CG is the de facto standard for SPD").
//
// The paper's fp64-CG / fp32-CG / fp16-CG are all fp64 solvers differing
// only in the storage precision of the preconditioner, which is handled by
// the PrimaryPrecond handle the caller passes in.
//
// One iteration loop serves every solve.  solve_many() advances k
// right-hand sides in lockstep: one batched SpMM and one batched
// preconditioner sweep per iteration stream the matrix and the factors
// once for the whole batch, and the per-column reductions run interleaved
// (dot_cols/nrm2_cols) so their k dependency chains overlap.  solve(b, x)
// is that loop at width 1, where SpMM and the column updates are spmv and
// axpy/axpby themselves.  The column reductions sum in blas::dot's order
// at every thread count, so a batched column is bit-identical to the
// single-RHS solve of the same system.  Columns converge (or break down)
// independently and are frozen the moment they finish.
//
// Lifecycle: setup(a, m) binds a system; solves draw their panels from a
// SolverWorkspace (shared or private), so repeated solves allocate
// nothing, and a later setup() against an equally-sized matrix reuses the
// same memory.
//
// Active-set compaction: when a column retires, the survivors are
// compacted into the leading columns of the R/Z/P/Q panels (an
// active→original index map scatters the x updates back to caller
// positions), so every SpMM, preconditioner sweep, and column reduction
// runs at the CURRENT width — re-dispatching through the compile-time
// k = 4/8/16 kernel tiers as the set shrinks — instead of paying full
// width k until the last straggler finishes.  Compaction moves column data
// verbatim and never reorders any per-column operation.  The `wave`
// argument turns the same loop into a ragged-batch scheduler: k
// right-hand sides are dispatched at most `wave` at a time, and a slot
// freed by a retiring column is refilled from the pending queue at the
// next iteration boundary — one workspace, sized for the wave, serves the
// whole batch.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/kernels.hpp"
#include "base/workspace.hpp"
#include "krylov/history.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

template <class VT = double>
class CgSolver {
 public:
  struct Config {
    double rtol = 1e-8;     ///< on ‖r‖ / ‖b‖ (recurrence residual)
    int max_iters = 19200;  ///< the paper's iteration cap
    bool record_history = false;
    /// Stagnation guard: stop with SolveStatus::kStagnated after this many
    /// consecutive iterations without relative-residual progress (rnorm
    /// failing to improve on 0.99× the best seen).  0 = off (default; the
    /// conformance-pinned behavior).  Pure comparisons on the already-
    /// computed norms — iterate streams are untouched.
    int stagnate_window = 0;
  };

  /// Deferred-setup construction (no allocation until the first solve).
  explicit CgSolver(Config cfg, SolverWorkspace* ws = nullptr, std::string key = "cg")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  CgSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
           SolverWorkspace* ws = nullptr, std::string key = "cg")
      : CgSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Panels live in own_ (or the shared workspace) under key_; a copy would
  // share them.  Two live solvers on one workspace need distinct keys.
  CgSolver(const CgSolver&) = delete;
  CgSolver& operator=(const CgSolver&) = delete;

  /// Bind a system.  The kernel dispatch table is rebound here too:
  /// solvers run on whatever backend the workspace was built for.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    kx_ = kern::Kernels(wsref().backend());
  }

  /// Solve A x = b from the given initial guess — solve_many() at width 1;
  /// returns iteration data.  (final_relres / seconds / solver name are
  /// filled by the caller, which owns true-residual evaluation and timing.)
  SolveResult solve(std::span<const VT> b, std::span<VT> x) {
    const auto ld = static_cast<std::ptrdiff_t>(n_);
    return std::move(solve_many(b.data(), ld, x.data(), ld, 1)[0]);
  }

  /// Batched solve: k systems A x_c = b_c in lockstep (column c of B/X at
  /// b + c·ldb / x + c·ldx).  Per column bit-identical to solve().
  /// `wave` > 0 caps the dispatch width: the batch runs as waves of at most
  /// `wave` columns, refilled from the pending queue as columns retire
  /// (0 = whole batch at once).
  std::vector<SolveResult> solve_many(const VT* b, std::ptrdiff_t ldb, VT* x,
                                      std::ptrdiff_t ldx, int k, int wave = 0);

 private:
  [[nodiscard]] SolverWorkspace& wsref() { return ws_ != nullptr ? *ws_ : own_; }

  Operator<VT>* a_ = nullptr;
  Preconditioner<VT>* m_ = nullptr;
  Config cfg_;
  std::size_t n_ = 0;
  SolverWorkspace* ws_ = nullptr;
  SolverWorkspace own_;
  std::string key_;
  kern::Kernels kx_;
};

}  // namespace nk
