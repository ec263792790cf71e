// Common solve-result and convergence-history types shared by all solvers
// and the bench harness.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace nk {

/// Structured terminal cause of a solve — the taxonomy the daemon-facing
/// resilience layer keys retry/fallback policy on.  Every solver records
/// WHY it stopped, not just whether the residual target was met:
///
///   kConverged    residual target reached (and, through an engine, the
///                 true fp64 residual confirmed it)
///   kMaxIters     iteration / restart budget exhausted with finite residuals
///   kBreakdown    a Krylov recurrence scalar hit an exact zero (CG pivot,
///                 BiCGStab rho / rhat·v / t·t / omega, Arnoldi hj1) —
///                 SolveResult::failure names the site
///   kDiverged     the recurrence claimed convergence but the true fp64
///                 residual disagreed (the engines' rtol·1.5 demotion)
///   kNonFinite    a NaN/Inf surfaced in a residual norm or recurrence
///                 scalar — failure names where
///   kStagnated    the windowed progress test saw no relative-residual
///                 improvement for `stagnate_window` consecutive checks
///   kInvalidInput the inputs were rejected before any iteration
///                 (dimension mismatch, non-finite b, empty system)
enum class SolveStatus : std::uint8_t {
  kConverged = 0,
  kMaxIters,
  kBreakdown,
  kDiverged,
  kNonFinite,
  kStagnated,
  kInvalidInput,
};

/// Short stable name ("converged", "max_iters", "breakdown", ...).
const char* status_name(SolveStatus s) noexcept;

/// Outcome of one complete solve (outer loop including restarts).
struct SolveResult {
  std::string solver;                ///< e.g. "fp16-F3R", "fp64-CG"
  bool converged = false;
  SolveStatus status = SolveStatus::kMaxIters;  ///< terminal cause
  std::string failure;               ///< breakdown/non-finite site ("pivot",
                                     ///< "rho", "hj1", "rnorm", ...); empty
                                     ///< unless status is a failure kind
  int iterations = 0;                ///< outermost iterations (incl. restarts)
  int restarts = 0;
  std::uint64_t precond_invocations = 0;  ///< Table 3 metric
  std::uint64_t spmv_count = 0;
  double seconds = 0.0;
  double final_relres = 0.0;         ///< true fp64 ‖b−Ax‖/‖b‖ at exit
  std::vector<double> history;       ///< per-outer-iteration relative residual
  /// Precision-escalation fallback trail (Session's `;fallback=` policy):
  /// one "<solver>: <status>[ (<site>)]" entry per FAILED attempt that
  /// preceded the attempt this result describes.  Empty when the first
  /// attempt stood.
  std::vector<std::string> attempts;

  /// Record a terminal cause with its site and keep `converged` in sync.
  void fail(SolveStatus s, std::string where = {}) {
    status = s;
    failure = std::move(where);
    converged = false;
  }
  void mark_converged() {
    status = SolveStatus::kConverged;
    failure.clear();
    converged = true;
  }
};

/// The windowed stagnation guard every solver shares (";stagnate-window="):
/// a progress check stalls unless `relres` improves on 0.99× the best value
/// seen, and `window` consecutive stalls stop the solve with
/// SolveStatus::kStagnated.  Pure comparisons on already-computed norms —
/// iterate streams are untouched.  A trivially copyable aggregate, so
/// batched solvers keep one per slot in workspace storage.  `best` starts
/// at the initial residual, or +inf when the first check always counts as
/// progress.
struct StagnationGuard {
  double best = std::numeric_limits<double>::infinity();
  int stall = 0;

  /// One progress check (window ≤ 0 = off).  On the window-th consecutive
  /// stall, records kStagnated at `site` on `r` and returns true.
  bool stalled(SolveResult& r, double relres, int window, const char* site) {
    if (window <= 0) return false;
    if (relres < 0.99 * best) {
      best = relres;
      stall = 0;
      return false;
    }
    if (++stall < window) return false;
    r.fail(SolveStatus::kStagnated, site);
    return true;
  }
};

/// Pretty one-line summary ("converged in 12 outer its / 768 M-applies,
/// 0.42 s, relres 6.3e-09").
std::string summarize(const SolveResult& r);

/// Geometric mean of a set of positive ratios (used in the relative-speedup
/// summaries that accompany the paper's figures).
double geomean(const std::vector<double>& xs);

}  // namespace nk
