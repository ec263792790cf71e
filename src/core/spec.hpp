// Solver/preconditioner descriptors — the data-driven face of the library.
//
// A SolverSpec names a complete solver configuration (kind, precision axis,
// restart/inner-m, termination, batching, preconditioner) as a VALUE, and
// round-trips through a compact text form so CLI flags, the conformance
// catalog, bench JSON, and a config-file-driven service all speak one
// language:
//
//   "f3r@fp16"                      fp16-F3R with its default bj precond
//   "fgmres64/bj-ilu0@fp16"         fp64 FGMRES(64), M = ILU(0) stored fp16
//   "ir-gmres8@fp32"                fp64 refinement + fp32 GMRES(8) inner
//   "krylov@fp16;nblocks=4"         CG (SPD) / BiCGStab with fp16-stored M
//   "cg/jacobi;wave=8;rtol=1e-6"    batched CG as 8-wide ragged waves
//
// Grammar (all names case-insensitive, canonicalized to lower case):
//
//   solver-spec  := solver-token [ '/' precond-token ] [ ':' backend ]
//                   ( ';' option )*
//   precond-spec := precond-token ( ';' option )*
//   solver-token := name [ '@' prec ]      name may end in digits = m
//   precond-token:= name [ '@' prec ]      (registered names match exactly)
//   option       := key '=' value | flag
//   prec         := fp64 | fp32 | fp16
//   backend      := host | omp | serial    (base/backend.hpp)
//
// Solver options: rtol=, max-iters=, restarts=, wave=, nohist,
// stagnate-window=, fallback=, backend= (execution-space backend; ":NAME"
// on the head is an alias, and giving both is an error).  An unset backend means "resolve at build
// time": Session falls back to NKRYLOV_BACKEND, then the host default.
// Preconditioner options: nblocks=, omega=, degree=.  max-iters= caps the
// flat kinds and fgmres, which restarts until that budget is spent and
// ignores restarts=.  The other nested kinds (f3r, the Table 4 variants)
// bound their outer work by restarts= instead (the outer FGMRES runs at
// most (restarts+1)·m1 iterations) and ignore max-iters.  Options a kind
// has no use for are accepted and ignored, so one option tail can serve a
// whole sweep of kinds.
//
// The solver token's '@prec' is the kind's PRECISION AXIS: the storage
// precision of M for the flat Krylov solvers (the paper's "fp16-CG"), the
// inner working precision for ir-gmres, the lowest precision of the nesting
// for f3r.  A '@prec' on the precond token overrides the storage precision
// of M specifically (issue-form "fgmres64/bj-ilu0@fp16").  The paper's
// legacy names parse as aliases: "fp16-F3R" == "f3r@fp16", "fp32-CG" ==
// "cg@fp32", while the Table 4 variants ("F2", "fp16-F3", ...) are
// registered kinds of their own.
//
// Name resolution consults the registry (core/registry.hpp): an exact
// registered name wins ("f2" is the Table 4 variant, not "f" with m = 2);
// otherwise a trailing digit run is split off as m ("fgmres64"); otherwise
// an "fpNN-" prefix is split off as the precision axis ("fp16-f3r").
// parse() throws SpecError on anything else, naming the registered kinds.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/backend.hpp"
#include "base/half.hpp"

namespace nk {

/// Error type for malformed or unknown spec strings.  Subclasses
/// std::invalid_argument so legacy catch sites keep working.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Description of a primary preconditioner M.
struct PrecondSpec {
  std::string kind = "bj";  ///< registered kind ("bj" = ILU(0)/IC(0) by symmetry)
  /// Storage precision of the minted apply handles; unset = the owning
  /// solver's precision axis (flat solvers) or the nesting's own choice.
  std::optional<Prec> storage;
  int nblocks = 0;    ///< block count for block-Jacobi/SSOR (0 = kind default)
  double omega = 1.0; ///< SSOR relaxation factor
  int degree = 2;     ///< Neumann-series degree

  // Fault-injection harness hooks (core/fault.hpp; only honored by the
  // test-only "fault" kind, which register_builtin_kinds never installs).
  /// Fault schedule, e.g. "nan@3" or "inf@0@fp16" (kind@apply-index[@prec]).
  std::string inject;
  /// Kind of the wrapped inner preconditioner ("" = "bj").
  std::string inner;

  /// Parse "kind[@prec][;option...]".  Throws SpecError.
  static PrecondSpec parse(const std::string& text);
  /// Canonical text form; parse(to_string()) reproduces *this exactly.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const PrecondSpec&) const = default;
};

/// Description of a complete solver configuration.
struct SolverSpec {
  std::string kind = "f3r";  ///< registered kind
  Prec prec = Prec::FP64;    ///< precision axis (meaning depends on kind)
  int m = 0;                 ///< restart / inner-m (0 = kind default)

  // Termination (the paper's defaults).
  double rtol = 1e-8;        ///< on the true fp64 relative residual
  int max_iters = 19200;     ///< flat-kind and fgmres iteration cap
  int max_restarts = 3;      ///< restart cap of the other nested kinds
  bool record_history = true;

  // Batching (solve_many scheduling; see CgSolver).
  int wave = 0;              ///< ragged-wave width (0 = whole batch at once)

  // Resilience policy (the Session-level recovery ladder; see README
  // "Failure modes & recovery").
  /// Stagnation guard: stop with SolveStatus::kStagnated after this many
  /// consecutive progress checks without relative-residual improvement
  /// (";stagnate-window=50").  0 = off — the conformance-pinned default.
  int stagnate_window = 0;
  /// Precision-escalation fallback (";fallback=fp32,fp64"): when a solve
  /// ends in non_finite or breakdown, Session retries the same problem at
  /// each listed precision axis in order, recording the failed attempts in
  /// SolveResult::attempts.  Empty = no retries (default).
  std::vector<Prec> fallback;

  /// Execution-space backend (";backend=serial" or the ":serial" suffix).
  /// Unset = resolve at build time (Session: NKRYLOV_BACKEND env, else
  /// host) — and to_string() omits it, so legacy spec strings stay
  /// byte-identical.
  std::optional<Backend> backend;

  PrecondSpec precond;       ///< the primary preconditioner M

  /// Parse the grammar above.  Throws SpecError.
  static SolverSpec parse(const std::string& text);
  /// Canonical text form; parse(to_string()) reproduces *this exactly.
  [[nodiscard]] std::string to_string() const;

  bool operator==(const SolverSpec&) const = default;
};

/// Free-function spellings of the static parsers.
SolverSpec parse_solver_spec(const std::string& text);
PrecondSpec parse_precond_spec(const std::string& text);

/// CLI front doors: parse or print a one-line error naming `flag`, the
/// offending value, and the registered kinds, then exit(2) — the same
/// error discipline as the Options numeric parsers (never an uncaught
/// throw that looks like a crash and hides the flag).
SolverSpec parse_solver_spec_cli(const std::string& flag, const std::string& text);
PrecondSpec parse_precond_spec_cli(const std::string& flag, const std::string& text);

}  // namespace nk
