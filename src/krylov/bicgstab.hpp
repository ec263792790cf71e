// Preconditioned BiCGStab (van der Vorst; Saad 2003) — the paper's baseline
// for nonsymmetric systems.  Each iteration applies the preconditioner
// twice and the operator twice, which is why Table 3 reports invocation
// counts rather than iteration counts for cross-solver comparability.
//
// Lifecycle mirrors CgSolver: setup(a, m) binds a system and acquires the
// eight working vectors from a SolverWorkspace; solve()/solve_many() then
// run with zero per-call allocation.  solve_many() advances k right-hand
// sides in lockstep — the two operator and two preconditioner applications
// per iteration each stream the matrix/factors once for the whole batch,
// and the six reductions run column-interleaved — reproducing solve()'s
// per-column operations bit-for-bit whenever the blas1 reductions are
// deterministic (single-threaded / below the parallel threshold), and to
// rounding level otherwise.
//
// Like CgSolver, the batched path runs active-set compaction with a
// ragged-wave scheduler (see cg.hpp for the scheme): survivors are
// compacted into the leading panel columns so every kernel runs at the
// current width, retiring columns hand their slots to pending right-hand
// sides, and an active→original map scatters x updates to caller columns.
// Compaction moves data verbatim — iterates remain bit-identical.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "base/workspace.hpp"
#include "krylov/history.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

template <class VT = double>
class BiCgStabSolver {
 public:
  struct Config {
    double rtol = 1e-8;
    int max_iters = 19200;  ///< iteration cap (each = 2 preconditioner calls)
    bool record_history = false;
    /// Stagnation guard (see CgSolver::Config::stagnate_window): stop with
    /// kStagnated after this many consecutive iterations without relative-
    /// residual progress.  0 = off (default).
    int stagnate_window = 0;
  };

  /// Deferred-setup construction (no allocation until setup()).
  explicit BiCgStabSolver(Config cfg, SolverWorkspace* ws = nullptr,
                          std::string key = "bicgstab")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  BiCgStabSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
                 SolverWorkspace* ws = nullptr, std::string key = "bicgstab")
      : BiCgStabSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Buffer spans point into own_ (or the shared workspace); a copy would
  // alias them.
  BiCgStabSolver(const BiCgStabSolver&) = delete;
  BiCgStabSolver& operator=(const BiCgStabSolver&) = delete;

  /// Bind a system; acquires (or reuses) the workspace vectors.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    SolverWorkspace& w = wsref();
    kx_ = kern::Kernels(w.backend());
    r_ = w.get<VT>(key_ + ".r", n_);
    rhat_ = w.get<VT>(key_ + ".rhat", n_);
    p_ = w.get<VT>(key_ + ".p", n_);
    v_ = w.get<VT>(key_ + ".v", n_);
    s_ = w.get<VT>(key_ + ".s", n_);
    t_ = w.get<VT>(key_ + ".t", n_);
    phat_ = w.get<VT>(key_ + ".phat", n_);
    shat_ = w.get<VT>(key_ + ".shat", n_);
  }

  SolveResult solve(std::span<const VT> b, std::span<VT> x);

  /// Batched solve: k systems in lockstep (column c of B/X at b + c·ldb /
  /// x + c·ldx).  Per column bit-identical to solve().  `wave` > 0 caps
  /// the dispatch width (ragged waves refilled as columns retire).
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
  std::span<VT> r_, rhat_, p_, v_, s_, t_, phat_, shat_;
};

}  // namespace nk
