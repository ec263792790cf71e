// Built-in solver engines and their registry entries.
//
// Each engine binds one solver kind to the uniform SolverEngine interface:
// construct cheaply from a SolverSpec, defer per-solve construction (typed
// apply handles, operators, Krylov buffers) into solve()/solve_many(), and
// fill the complete SolveResult (timing, invocation counters, true fp64
// residual) — the conformance baseline pins that behavior.
//
// Three engine families serve the fixed kinds (the "auto" meta-kind lives
// in core/tune/): FlatKrylovEngine (cg, bicgstab, krylov), IrGmresEngine
// (ir-gmres), and NestedEngine — f3r, the Table 4 variants, and fgmres, the
// paper's FGMRES(m) baseline, which is the depth-1 tuple (F^m, M) and
// shares NestedSolver's restart loop.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "base/timer.hpp"
#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/tune/tuner.hpp"
#include "core/variants.hpp"
#include "krylov/bicgstab.hpp"
#include "krylov/cg.hpp"
#include "krylov/fgmres.hpp"
#include "precond/ainv.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/jacobi.hpp"
#include "precond/neumann.hpp"
#include "precond/ssor.hpp"

namespace nk {

namespace {

/// Finalize a SolveResult with timing + invocation-counter deltas.
template <class SolveFn>
SolveResult timed_solve(PrimaryPrecond& m, const std::string& name, SolveFn&& fn) {
  SolveResult res;
  const std::uint64_t calls0 = m.invocations();
  WallTimer t;
  res = fn();
  res.seconds = t.seconds();
  res.solver = name;
  res.precond_invocations = m.invocations() - calls0;
  return res;
}

/// The precision axis as M's storage precision: an explicit '@prec' on the
/// precond token wins, else the solver token's axis (the paper's "fp16-CG"
/// = fp64 CG with an fp16-stored preconditioner).
Prec eff_storage(const SolverSpec& s) { return s.precond.storage.value_or(s.prec); }

/// Backend the engine's pipeline was built for: the workspace carries it
/// (Session resolves spec > NKRYLOV_BACKEND > host before minting); a null
/// workspace (direct factory use in tests) means the host default.
Backend ws_backend(const SolverWorkspace* ws) {
  return ws != nullptr ? ws->backend() : Backend::kHost;
}

/// Tail of every flat-solver solve (a single-RHS solve is a batch of
/// width 1): per-column true residuals, batch-total counters, and naming.
void finalize_many(std::vector<SolveResult>& res, const PreparedProblem& p,
                   std::span<const double> B, std::span<const double> X,
                   const std::string& name, double rtol, double seconds,
                   std::uint64_t m_calls, std::uint64_t spmvs, Backend be) {
  const std::size_t n = p.b.size();
  const kern::Kernels kx(be);
  for (std::size_t c = 0; c < res.size(); ++c) {
    res[c].solver = name;
    res[c].seconds = seconds;
    res[c].precond_invocations = m_calls;
    res[c].spmv_count = spmvs;
    res[c].final_relres =
        kx.relative_residual(p.a->csr_fp64(), X.subspan(c * n, n), B.subspan(c * n, n));
    // Demote a recurrence-claimed convergence the true fp64 residual
    // disagrees with: the taxonomy's kDiverged ("garbage labeled
    // converged" is exactly what a service must never hand back).
    if (res[c].converged && !(res[c].final_relres < rtol * 1.5))
      res[c].fail(SolveStatus::kDiverged, "true-residual");
  }
}

// ------------------------------------------------------------------ flat

/// CG / BiCGStab over fp64 vectors with a `storage`-precision M handle;
/// batched solve_many with active-set compaction and ragged waves, and a
/// single-RHS solve that is the batch of width 1.
template <class Solver>
class FlatKrylovEngine final : public SolverEngine {
 public:
  FlatKrylovEngine(SolverSpec spec, const PreparedProblem& p,
                   std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws,
                   std::string label, bool halve_iters)
      : spec_(std::move(spec)), p_(&p), m_(std::move(m)), ws_(ws),
        label_(std::move(label)), halve_iters_(halve_iters) {}

  [[nodiscard]] std::string name() const override {
    return std::string(prec_name(eff_storage(spec_))) + "-" + label_;
  }

  SolveResult solve(std::span<const double> b, std::span<double> x) override {
    return std::move(solve_many(b, x, 1)[0]);
  }

  std::vector<SolveResult> solve_many(std::span<const double> B, std::span<double> X,
                                      int k) override {
    const Backend be = ws_backend(ws_);
    auto handle = m_->make_apply<double>(eff_storage(spec_));
    handle->set_backend(be);
    // Honor the prepared problem's storage format (CSR or SELL).
    auto op = p_->a->make_operator<double>(Prec::FP64, be);
    Solver solver(*op, *handle, config(), ws_);
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(p_->b.size());
    const std::uint64_t calls0 = m_->invocations();
    WallTimer t;
    auto res = solver.solve_many(B.data(), n, X.data(), n, k, spec_.wave);
    finalize_many(res, *p_, B, X, name(), spec_.rtol, t.seconds(),
                  m_->invocations() - calls0, op->spmv_count(), be);
    return res;
  }

 private:
  [[nodiscard]] typename Solver::Config config() const {
    typename Solver::Config cfg;
    cfg.rtol = spec_.rtol;
    // BiCGStab makes 2 preconditioner calls per iteration: half the cap.
    cfg.max_iters = halve_iters_ ? spec_.max_iters / 2 : spec_.max_iters;
    cfg.record_history = spec_.record_history;
    cfg.stagnate_window = spec_.stagnate_window;
    return cfg;
  }

  SolverSpec spec_;
  const PreparedProblem* p_;
  std::shared_ptr<PrimaryPrecond> m_;
  SolverWorkspace* ws_;
  std::string label_;
  bool halve_iters_;
};

using CgEngine = FlatKrylovEngine<CgSolver<double>>;
using BiCgStabEngine = FlatKrylovEngine<BiCgStabSolver<double>>;

// -------------------------------------------------------------- ir-gmres

/// Conventional mixed-precision baseline: fp64 iterative refinement
/// (Richardson) outer with a low-precision GMRES(m) inner solver (Anzt et
/// al. 2011; Lindquist et al. 2021).  The spec's precision axis is the
/// inner working precision (matrix, vectors, and M all at that precision).
class IrGmresEngine final : public SolverEngine {
 public:
  IrGmresEngine(SolverSpec spec, const PreparedProblem& p,
                std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws)
      : spec_(std::move(spec)), p_(&p), m_(std::move(m)), ws_(ws) {}

  [[nodiscard]] std::string name() const override {
    return std::string(prec_name(spec_.prec)) + "-IR-GMRES(" + std::to_string(spec_.m) +
           ")";
  }

  SolveResult solve(std::span<const double> b, std::span<double> x) override {
    return timed_solve(*m_, name(), [&] {
      switch (spec_.prec) {
        case Prec::FP64: return impl<double>(b, x);
        case Prec::FP32: return impl<float>(b, x);
        case Prec::FP16: return impl<half>(b, x);
      }
      throw std::logic_error("ir-gmres: bad precision");
    });
  }

 private:
  template <class VT>
  SolveResult impl(std::span<const double> b, std::span<double> x) {
    const std::size_t n = b.size();
    const Backend be = ws_backend(ws_);
    const kern::Kernels kx(be);
    // The matrix is stored at the inner working precision; only M's
    // storage honors a precond-token override.
    auto op = p_->a->make_operator<VT>(spec_.prec, be);
    auto handle = m_->make_apply<VT>(eff_storage(spec_));
    handle->set_backend(be);
    FgmresSolver<VT> inner(*op, *handle, typename FgmresSolver<VT>::Config{spec_.m}, ws_);
    CsrOperator<double, double> op64(p_->a->csr_fp64(), be);

    SolveResult r;
    std::vector<double> rd(n);
    std::vector<VT> rl(n), cl(n);
    const double bnorm = static_cast<double>(kx.nrm2(b));
    const double bref = bnorm > 0.0 ? bnorm : 1.0;
    const int max_outer = std::max(1, spec_.max_iters / spec_.m);
    StagnationGuard stag;
    for (int outer = 0; outer < max_outer; ++outer) {
      op64.residual(b, std::span<const double>(x.data(), n), std::span<double>(rd));
      const double relres =
          static_cast<double>(kx.nrm2(std::span<const double>(rd))) / bref;
      r.final_relres = relres;
      if (spec_.record_history) r.history.push_back(relres);
      if (relres < spec_.rtol) {
        r.mark_converged();
        break;
      }
      if (!std::isfinite(relres)) {
        r.fail(SolveStatus::kNonFinite, "relres");
        break;
      }
      if (stag.stalled(r, relres, spec_.stagnate_window, "relres")) break;
      // Low-precision correction solve A c ≈ r.  The residual is normalized
      // before the downcast — late-stage residuals (~1e-8·‖b‖) would land in
      // fp16's subnormal range and stall the refinement otherwise.
      const double rnorm = static_cast<double>(kx.nrm2(std::span<const double>(rd)));
      if (rnorm > 0.0) kx.scal(1.0 / rnorm, std::span<double>(rd));
      kx.convert(std::span<const double>(rd), std::span<VT>(rl));
      inner.apply(std::span<const VT>(rl), std::span<VT>(cl));
      kx.axpy(rnorm, std::span<const VT>(cl), std::span<double>(x.data(), n));
      r.iterations = outer + 1;
    }
    r.spmv_count = op->spmv_count() + op64.spmv_count();
    return r;
  }

  SolverSpec spec_;
  const PreparedProblem* p_;
  std::shared_ptr<PrimaryPrecond> m_;
  SolverWorkspace* ws_;
};

// ---------------------------------------------------------------- nested

/// Any nested tuple (F3R, the Table 4 variants, custom configurations) and
/// the flat FGMRES(m) baseline, which is the one-level tuple (F^m, M).
/// NestedSolver::solve fills every per-column counter itself.
///
/// Each solve()/solve_many() builds a fresh NestedSolver, so Algorithm 1's
/// adaptive Richardson weights restart at 1 for every solve() right-hand
/// side and every solve_many() batch (inside a batch they carry from
/// column to column, see NestedSolver::solve_many) instead of carrying
/// over from the previous call.  The
/// rebuild is cheap: the tuple's buffers come from the Session's workspace
/// (same keys, no regrowth), and a fresh workspace's slabs commit only the
/// pages a solve writes.
class NestedEngine final : public SolverEngine {
 public:
  NestedEngine(const PreparedProblem& p, std::shared_ptr<PrimaryPrecond> m,
               NestedConfig cfg, Termination term, SolverWorkspace* ws)
      : p_(&p), m_(std::move(m)), cfg_(std::move(cfg)), term_(term), ws_(ws) {}

  [[nodiscard]] std::string name() const override { return cfg_.name; }

  SolveResult solve(std::span<const double> b, std::span<double> x) override {
    NestedSolver solver(p_->a, m_, cfg_, ws_);
    return solver.solve(b, x, term_);
  }

  std::vector<SolveResult> solve_many(std::span<const double> B, std::span<double> X,
                                      int k) override {
    NestedSolver solver(p_->a, m_, cfg_, ws_);
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(p_->b.size());
    return solver.solve_many(B.data(), n, X.data(), n, k, term_);
  }

 private:
  const PreparedProblem* p_;
  std::shared_ptr<PrimaryPrecond> m_;
  NestedConfig cfg_;
  Termination term_;
  SolverWorkspace* ws_;
};

Termination termination_of(const SolverSpec& spec) {
  Termination t;
  t.rtol = spec.rtol;
  t.max_restarts = spec.max_restarts;
  t.record_history = spec.record_history;
  t.stagnate_window = spec.stagnate_window;
  return t;
}

/// FGMRES(m) with a `storage`-precision M handle — the paper's FGMRES(64)
/// baseline — as the depth-1 tuple (F^m, M): one fp64 level over fp64 A.
NestedConfig fgmres_config(const SolverSpec& spec) {
  LevelSpec outer;
  outer.kind = SolverKind::FGMRES;
  outer.m = spec.m;
  NestedConfig cfg;
  cfg.name = std::string(prec_name(eff_storage(spec))) + "-FGMRES(" +
             std::to_string(spec.m) + ")";
  cfg.levels = {outer};
  cfg.precond_storage = eff_storage(spec);
  return cfg;
}

/// The flat kind's budget is `max-iters=` alone: it restarts until that
/// many outer iterations have run and ignores `restarts=`.
Termination fgmres_termination(const SolverSpec& spec) {
  Termination t = termination_of(spec);
  t.max_restarts = std::numeric_limits<int>::max();
  t.max_iters = spec.max_iters;
  return t;
}

// ------------------------------------------------- identity ("none") M

/// Counting identity handle: un-preconditioned solves still report
/// M-invocations so the Table 3 accounting stays uniform.
template <class VT>
class CountingIdentity final : public Preconditioner<VT> {
 public:
  CountingIdentity(index_t n, std::shared_ptr<InvocationCounter> c)
      : n_(n), counter_(std::move(c)) {}
  void apply(std::span<const VT> r, std::span<VT> z) override {
    this->kern_table().copy(r, z);
    ++counter_->count;
  }
  [[nodiscard]] index_t size() const override { return n_; }

 private:
  index_t n_;
  std::shared_ptr<InvocationCounter> counter_;
};

class IdentityPrimary final : public PrimaryPrecond {
 public:
  explicit IdentityPrimary(index_t n) : n_(n) {}
  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] index_t size() const override { return n_; }
  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec) override {
    return std::make_unique<CountingIdentity<double>>(n_, counter_);
  }
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec) override {
    return std::make_unique<CountingIdentity<float>>(n_, counter_);
  }
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec) override {
    return std::make_unique<CountingIdentity<half>>(n_, counter_);
  }

 private:
  index_t n_;
};

/// Block-Jacobi ILU(0)/IC(0): the paper's CPU-node primary, IC(0) on
/// symmetric problems.
std::shared_ptr<PrimaryPrecond> make_bj(const PrecondSpec& spec, const PreparedProblem& p,
                                        int force) {
  const CsrMatrix<double>& a = p.a->csr_fp64();
  const bool ic = force == 0 ? p.symmetric : force > 0;
  if (ic) {
    BlockJacobiIc0::Config c;
    c.nblocks = spec.nblocks;
    c.alpha = p.alpha_ilu;
    return std::make_shared<BlockJacobiIc0>(a, c);
  }
  BlockJacobiIlu0::Config c;
  c.nblocks = spec.nblocks;
  c.alpha = p.alpha_ilu;
  return std::make_shared<BlockJacobiIlu0>(a, c);
}

}  // namespace

namespace detail {

std::unique_ptr<SolverEngine> make_nested_engine(const PreparedProblem& p,
                                                 std::shared_ptr<PrimaryPrecond> m,
                                                 NestedConfig cfg, Termination term,
                                                 SolverWorkspace* ws) {
  return std::make_unique<NestedEngine>(p, std::move(m), std::move(cfg), term, ws);
}

void register_builtin_kinds(Registry& r) {
  // --- primary preconditioners (the conformance trio first: the sweep's
  // cell ordering follows registration order) ---
  r.add_precond({"jacobi", "diagonal scaling", true},
                [](const PrecondSpec&, const PreparedProblem& p) {
                  return std::make_shared<JacobiPrecond>(p.a->csr_fp64());
                });
  r.add_precond({"bj", "block-Jacobi ILU(0), IC(0) when symmetric (alpha_ILU)", true},
                [](const PrecondSpec& s, const PreparedProblem& p) {
                  return make_bj(s, p, 0);
                });
  r.add_precond({"sd-ainv", "scaled-diagonal AINV (alpha_AINV, GPU node)", true},
                [](const PrecondSpec&, const PreparedProblem& p) {
                  SdAinv::Config c;
                  c.alpha = p.alpha_ainv;
                  c.symmetric = p.symmetric;
                  return std::make_shared<SdAinv>(p.a->csr_fp64(), c);
                });
  r.add_precond({"bj-ilu0", "block-Jacobi ILU(0) regardless of symmetry"},
                [](const PrecondSpec& s, const PreparedProblem& p) {
                  return make_bj(s, p, -1);
                });
  r.add_precond({"bj-ic0", "block-Jacobi IC(0) (requires symmetry)"},
                [](const PrecondSpec& s, const PreparedProblem& p) {
                  return make_bj(s, p, +1);
                });
  r.add_precond({"ssor", "block SSOR(omega)"},
                [](const PrecondSpec& s, const PreparedProblem& p) {
                  return std::make_shared<SsorPrecond>(
                      p.a->csr_fp64(), SsorPrecond::Config{s.nblocks, s.omega});
                });
  r.add_precond({"neumann", "Neumann-series approximate inverse (degree)"},
                [](const PrecondSpec& s, const PreparedProblem& p) {
                  return std::make_shared<NeumannPrecond>(p.a->csr_fp64(),
                                                          NeumannPrecond::Config{s.degree});
                });
  r.add_precond({"none", "identity (un-preconditioned)"},
                [](const PrecondSpec&, const PreparedProblem& p) {
                  return std::make_shared<IdentityPrimary>(p.a->size());
                });

  // --- flat Krylov solvers ---
  r.add_solver({"cg", "fp64 preconditioned CG (SPD)", false, 0, true, false},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 return std::make_unique<CgEngine>(s, p, std::move(m), ws, "CG", false);
               });
  r.add_solver({"bicgstab", "fp64 preconditioned BiCGStab", false, 0, true, false},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 return std::make_unique<BiCgStabEngine>(s, p, std::move(m), ws,
                                                         "BiCGStab", true);
               });
  r.add_solver({"krylov", "CG on symmetric problems, BiCGStab otherwise", false, 0, true,
                true},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m,
                  SolverWorkspace* ws) -> std::unique_ptr<SolverEngine> {
                 if (p.symmetric)
                   return std::make_unique<CgEngine>(s, p, std::move(m), ws, "CG", false);
                 return std::make_unique<BiCgStabEngine>(s, p, std::move(m), ws,
                                                         "BiCGStab", true);
               });
  // (make_solver resolves default_m before calling the factories, so the
  // specs these engines see always carry a concrete m.)
  r.add_solver({"fgmres", "fp64 restarted FGMRES(m)", true, 64, true, true},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 return std::make_unique<NestedEngine>(p, std::move(m), fgmres_config(s),
                                                       fgmres_termination(s), ws);
               });
  r.add_solver({"ir-gmres", "fp64 iterative refinement + low-precision GMRES(m) inner",
                true, 8, true, false},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 return std::make_unique<IrGmresEngine>(s, p, std::move(m), ws);
               });

  // --- nested tuples ---
  r.add_solver({"f3r", "the paper's F3R at the given lowest precision", false, 0, true,
                true},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 NestedConfig cfg = f3r_config(s.prec);
                 if (s.precond.storage.has_value()) cfg.precond_storage = *s.precond.storage;
                 return std::make_unique<NestedEngine>(p, std::move(m), std::move(cfg),
                                                       termination_of(s), ws);
               });
  // Table 4 ablation variants: registered aliases with fixed precisions
  // (variant_names() is the canonical-case spelling, keys are lower case).
  for (const std::string& vname : variant_names()) {
    std::string key = vname;
    for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    r.add_solver({key, "Table 4 nesting-depth variant " + vname, false, 0, false, false},
                 [vname](const SolverSpec& s, const PreparedProblem& p,
                         std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                   NestedConfig cfg = variant_config(vname);
                   if (s.precond.storage.has_value())
                     cfg.precond_storage = *s.precond.storage;
                   return std::make_unique<NestedEngine>(p, std::move(m), std::move(cfg),
                                                         termination_of(s), ws);
                 });
  }

  // --- the autotuner meta-kind (core/tune/) ---
  // takes_prec=true so "auto@fp16" parses: a non-fp64 '@prec' PINS the
  // shortlist's precision axis rather than naming a fixed storage choice
  // (fp64 itself cannot be pinned — it reads as "no pin").  Not in the
  // conformance catalog: its cell would be whatever kind it delegates to.
  r.add_solver({"auto", "autotuned choice: cost-model shortlist + probe solves + perf-DB",
                false, 0, true, false},
               [](const SolverSpec& s, const PreparedProblem& p,
                  std::shared_ptr<PrimaryPrecond> m, SolverWorkspace* ws) {
                 return tune::make_auto_engine(s, p, std::move(m), ws);
               });
}

}  // namespace detail

}  // namespace nk
