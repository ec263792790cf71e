// F3R — the paper's proposed solver (Section 4.2).
//
//   F3R = (F^m1, F^m2, F^m3, R^m4, M),  defaults (100, 8, 4, 2), c = 64.
//
// Three precision configurations are evaluated in Section 5:
//
//   fp64-F3R — every level in fp64 (the speedup baseline);
//   fp32-F3R — fp32 for all inner solvers, fp64 outermost;
//   fp16-F3R — the Table 1 mapping: fp32 second level, fp16 matrix at the
//              third level (fp32 vectors), all-fp16 innermost Richardson.
//
// The factory functions here produce NestedConfig descriptions consumed by
// NestedSolver (run_f3r_best searches the fp16-F3R-best parameter box);
// see variants.hpp for the Section 6.2 ablation solvers.
#pragma once

#include <memory>
#include <string>

#include "core/nested_builder.hpp"
#include "core/problem.hpp"

namespace nk {

/// Tunable F3R parameters (paper defaults).
struct F3rParams {
  int m1 = 100;  ///< outermost FGMRES dimension (also the restart cycle)
  int m2 = 8;    ///< second-level FGMRES iterations
  int m3 = 4;    ///< third-level FGMRES iterations
  int m4 = 2;    ///< innermost Richardson iterations
  int cycle = 64;           ///< adaptive weight-update period c
  bool adaptive = true;     ///< false → fixed_weight everywhere (Fig. 6)
  float fixed_weight = 1.0f;
};

/// F3R at the given "lowest precision":
///   Prec::FP64 → fp64-F3R, Prec::FP32 → fp32-F3R, Prec::FP16 → fp16-F3R.
NestedConfig f3r_config(Prec lowest, const F3rParams& p = {});

/// Convenience names used across benches: "fp64-F3R", "fp32-F3R", "fp16-F3R".
std::string f3r_name(Prec lowest);

/// The paper's default termination for F3R (rtol 1e-8, ≤ 3 restarts).
Termination f3r_termination(double rtol = 1e-8);

/// Search the paper's fp16-F3R-best parameter box (m2 ∈ {6..10},
/// m3 ∈ {2..6}, m4 ∈ {1,2}) and return the fastest converged run plus its
/// parameters formatted "m2-m3-m4".  `budget` limits the number of
/// configurations tried (they are ordered by the memory-access model).
struct BestSearchResult {
  SolveResult result;
  F3rParams params;
  std::string param_label;
  int tried = 0;
};
BestSearchResult run_f3r_best(const PreparedProblem& p, std::shared_ptr<PrimaryPrecond> m,
                              double rtol = 1e-8, int budget = 12);

}  // namespace nk
