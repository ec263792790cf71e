// The type-erased solver interface behind nk::Session.
//
// A SolverEngine is one fully described solver bound to a prepared problem
// and a primary preconditioner: the registry's factories build one from a
// SolverSpec, and Session drives it through the uniform solve() /
// solve_many() surface.  Engines defer all heavy per-solve construction
// (operator handles, typed apply handles, Krylov buffers) into the solve
// calls themselves, drawing buffers from the owning Session's workspace, so
// constructing an engine is cheap and repeated solves reuse memory.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "krylov/history.hpp"

namespace nk {

class SolverEngine {
 public:
  virtual ~SolverEngine() = default;

  /// Reporting name, e.g. "fp16-CG", "fp64-FGMRES(64)", "fp16-F3R".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Solve A x = b (x holds the initial guess, normally zero).  Fills the
  /// complete SolveResult: name, timing, invocation counters, true final
  /// relative residual.
  virtual SolveResult solve(std::span<const double> b, std::span<double> x) = 0;

  /// Batched solve: k right-hand sides, column c of B/X contiguous at
  /// offset c·n (Session passes spans of exactly k·n entries).  cg,
  /// bicgstab and krylov override this with lockstep kernels that share
  /// every matrix/factor sweep across the batch and stay per-column
  /// bit-identical to solve(); the nested kinds (f3r, the Table 4
  /// variants, fgmres) override it to run the columns in order on one
  /// shared tuple setup.  The default, used by ir-gmres, runs the columns
  /// sequentially through solve() (setup is amortized by the shared
  /// problem and workspace).
  virtual std::vector<SolveResult> solve_many(std::span<const double> B,
                                              std::span<double> X, int k) {
    const std::size_t n = k > 0 ? B.size() / static_cast<std::size_t>(k) : 0;
    std::vector<SolveResult> res;
    res.reserve(static_cast<std::size_t>(std::max(k, 0)));
    for (int c = 0; c < k; ++c)
      res.push_back(solve(B.subspan(static_cast<std::size_t>(c) * n, n),
                          X.subspan(static_cast<std::size_t>(c) * n, n)));
    return res;
  }
};

}  // namespace nk
