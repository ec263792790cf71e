// nk::Session — the one-object facade over the descriptor layer.
//
// A Session owns everything a solve needs: the prepared problem, the
// primary preconditioner (built from the spec, or borrowed from the
// caller), a grow-only SolverWorkspace, and the type-erased solver engine
// the registry minted for the spec.  Single- and multi-RHS solves (ragged
// waves named by the spec) then run through one uniform surface:
//
//   nk::PreparedProblem p = nk::prepare_standin("ecology2", 1);
//   nk::Session s(p, nk::SolverSpec::parse("f3r@fp16"));
//   nk::SolveResult r = s.solve();
//
// Repeated solves on one Session reuse the workspace (the setup/solve
// split of PR 3): buffers are acquired once and every later solve runs
// allocation-free.  Per column, solve_many() reproduces solve() on that
// column alone bit-for-bit for the kinds with a batched kernel path (cg,
// bicgstab, the nested tuples) — the guarantee the conformance and
// BatchedCompaction tests pin.
//
// CONCURRENCY CONTRACT: a Session is single-solver-at-a-time.  Its
// workspace slabs are grow-only SHARED state (workspace.hpp), its engine
// holds spans into them, and the fallback ladder re-mints the engine in
// place — two overlapping solves would silently alias each other's
// buffers.  Rather than corrupt results, an overlapping solve()/
// solve_many() call FAILS FAST: the loser returns SolveStatus::
// kInvalidInput with failure site "concurrent-use" and does not touch the
// engine or workspace.  Give each thread its own Session, or lease
// Sessions through nk::service::SessionCache (the daemon's pattern), and
// serialize externally if two threads must share one.  Sequential use from
// different threads is fine (results are thread-count-dependent only
// through OpenMP reassociation, like every kernel in the library).
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"

namespace nk {

/// Non-owning shared_ptr view of a caller-owned preconditioner (the
/// aliasing-constructor idiom), for callers that keep ownership of M (one
/// factorization shared by several Sessions).  `m` must outlive every user.
inline std::shared_ptr<PrimaryPrecond> borrow_precond(PrimaryPrecond& m) {
  return std::shared_ptr<PrimaryPrecond>(std::shared_ptr<void>(), &m);
}

/// Non-owning view of a caller-owned prepared problem: a Session built
/// over it performs no copy of the RHS (benches and per-cell sweeps use
/// this).  `p` must outlive the Session.
inline std::shared_ptr<const PreparedProblem> borrow_problem(const PreparedProblem& p) {
  return std::shared_ptr<const PreparedProblem>(std::shared_ptr<void>(), &p);
}

class Session {
 public:
  /// Build the full stack from a spec: M from spec.precond via the
  /// registry, then the solver engine.  Throws SpecError on unknown kinds.
  /// The by-value overloads take (a copy of) the problem into the Session;
  /// the shared_ptr overloads share it — pass borrow_problem(p) to build
  /// over a caller-owned problem with zero copies.
  Session(PreparedProblem p, const SolverSpec& spec);
  Session(std::shared_ptr<const PreparedProblem> p, const SolverSpec& spec);

  /// Spec-text conveniences, so the autotuner's one-liner reads as the
  /// paper intends: `nk::Session s(p, "auto");`.  Exactly equivalent to
  /// parsing first; SpecError propagates on malformed text.
  Session(PreparedProblem p, const std::string& spec_text);
  Session(std::shared_ptr<const PreparedProblem> p, const std::string& spec_text);

  /// Same, but solve through a caller-supplied M (the spec's precond part
  /// is ignored except for its storage-precision override).
  Session(PreparedProblem p, const SolverSpec& spec, std::shared_ptr<PrimaryPrecond> m);
  Session(std::shared_ptr<const PreparedProblem> p, const SolverSpec& spec,
          std::shared_ptr<PrimaryPrecond> m);

  /// Custom nested tuples the spec grammar cannot express (hand-built
  /// NestedConfig levels, dynamic inner termination, Chebyshev levels).
  Session(PreparedProblem p, NestedConfig cfg, const Termination& term,
          std::shared_ptr<PrimaryPrecond> m);
  Session(std::shared_ptr<const PreparedProblem> p, NestedConfig cfg,
          const Termination& term, std::shared_ptr<PrimaryPrecond> m);

  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  /// Solve against the problem's own right-hand side from a zero guess
  /// (the experiment-runner path; the solution vector is internal).
  SolveResult solve();

  /// Solve A x = b (x holds the initial guess).  Overlapping calls from
  /// other threads fail fast (kInvalidInput, "concurrent-use") — see the
  /// concurrency contract above.
  ///
  /// This is the resilience-policy entry point: inputs are validated first
  /// (empty system, size mismatch, non-finite b → SolveStatus::kInvalidInput
  /// without touching the engine), and when the spec carries a
  /// ";fallback=fp32,fp64" ladder, a non_finite/breakdown outcome is
  /// retried at each escalated precision in turn — M re-minted at the new
  /// storage precision, x reset to zero, the failed attempts recorded in
  /// SolveResult::attempts.  The prepared problem, preconditioner
  /// factorization, and workspace slabs are all reused across attempts.
  SolveResult solve(std::span<const double> b, std::span<double> x);

  /// Batched solve: k right-hand sides, column c of B/X contiguous at
  /// offset c·n.  Wave width comes from the spec ("...;wave=8").  k ≤ 0
  /// returns an empty vector; size mismatches return k kInvalidInput
  /// results.  Under ";fallback="
  /// every retired non_finite/breakdown column is re-solved individually
  /// through the scalar escalation ladder.
  std::vector<SolveResult> solve_many(std::span<const double> B, std::span<double> X,
                                      int k);

  /// k seeded right-hand sides for this problem (see nk::batch_rhs).
  [[nodiscard]] std::vector<double> make_rhs_batch(int k, std::uint64_t seed0 = 7) const;

  [[nodiscard]] const SolverSpec& spec() const { return spec_; }
  [[nodiscard]] const PreparedProblem& problem() const { return *p_; }
  [[nodiscard]] PrimaryPrecond& precond() { return *m_; }
  [[nodiscard]] SolverWorkspace& workspace() { return *ws_; }
  /// The ACTIVE execution-space backend, after resolution (spec's
  /// ";backend=" > NKRYLOV_BACKEND > host).  When NKRYLOV_BACKEND held an
  /// unknown name this reports host, but every solve fails fast with
  /// kInvalidInput ("backend: ...") rather than silently running there.
  [[nodiscard]] Backend backend() const { return ws_->backend(); }
  /// The engine's reporting name ("fp16-CG", "fp64-FGMRES(64)", ...).
  [[nodiscard]] std::string solver_name() const;

 private:
  [[nodiscard]] SolveResult invalid_input(std::string why) const;
  SolveResult solve_impl(std::span<const double> b, std::span<double> x);

  /// RAII claim on the Session's single solve slot; `claimed` false on the
  /// losing side of a race (the caller must fail fast, touching nothing).
  struct SolveSlot {
    explicit SolveSlot(std::atomic<bool>& busy)
        : busy_(busy), claimed(!busy.exchange(true, std::memory_order_acquire)) {}
    ~SolveSlot() {
      if (claimed) busy_.store(false, std::memory_order_release);
    }
    SolveSlot(const SolveSlot&) = delete;
    SolveSlot& operator=(const SolveSlot&) = delete;
    std::atomic<bool>& busy_;
    const bool claimed;
  };

  // The problem and workspace live behind pointers so the engine's
  // internal references survive moves of the Session itself — and so does
  // the busy flag (std::atomic is immovable).
  std::shared_ptr<const PreparedProblem> p_;
  SolverSpec spec_;
  std::shared_ptr<PrimaryPrecond> m_;
  /// Non-empty when NKRYLOV_BACKEND named an unknown backend at build time
  /// (and the spec did not override it): solves fail fast with this
  /// message instead of silently falling back.  Declared before ws_ so the
  /// workspace factory can fill it from the constructor init list.
  std::string backend_err_;
  std::unique_ptr<SolverWorkspace> ws_;
  std::unique_ptr<SolverEngine> engine_;
  std::unique_ptr<std::atomic<bool>> in_solve_ = std::make_unique<std::atomic<bool>>(false);
};

}  // namespace nk
