// Preconditioned BiCGStab (van der Vorst; Saad 2003) — the paper's baseline
// for nonsymmetric systems.  Each iteration applies the preconditioner
// twice and the operator twice, which is why Table 3 reports invocation
// counts rather than iteration counts for cross-solver comparability.
//
// Structure mirrors CgSolver: one iteration loop, solve_many(), advances k
// right-hand sides in lockstep — the two operator and two preconditioner
// applications per iteration each stream the matrix/factors once for the
// whole batch, and the six reductions run column-interleaved — with
// active-set compaction and ragged waves (see cg.hpp for the scheme).
// solve(b, x) is that loop at width 1, and a batched column reproduces it
// bit-for-bit at every thread count.  setup(a, m) binds a system; the
// panels come from a SolverWorkspace, so solves allocate nothing.
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

  /// Deferred-setup construction (no allocation until the first solve).
  explicit BiCgStabSolver(Config cfg, SolverWorkspace* ws = nullptr,
                          std::string key = "bicgstab")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  BiCgStabSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
                 SolverWorkspace* ws = nullptr, std::string key = "bicgstab")
      : BiCgStabSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Panels live in own_ (or the shared workspace) under key_; a copy would
  // share them.
  BiCgStabSolver(const BiCgStabSolver&) = delete;
  BiCgStabSolver& operator=(const BiCgStabSolver&) = delete;

  /// Bind a system.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    kx_ = kern::Kernels(wsref().backend());
  }

  /// Solve A x = b from the given initial guess — solve_many() at width 1.
  SolveResult solve(std::span<const VT> b, std::span<VT> x) {
    const auto ld = static_cast<std::ptrdiff_t>(n_);
    return std::move(solve_many(b.data(), ld, x.data(), ld, 1)[0]);
  }

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
};

}  // namespace nk
