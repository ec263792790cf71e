// Flexible GMRES (Saad 1993) — the building block of the nested Krylov
// framework.
//
// Flexible means the preconditioner may change between iterations, which is
// exactly what a nested inner solver is; FGMRES therefore stores the
// preconditioned basis Z alongside the Arnoldi basis V and forms the
// update from Z.
//
// Implementation follows the paper: classical Gram-Schmidt for the Arnoldi
// process and Givens rotations for the least-squares QR, with all Arnoldi /
// QR scalars and vectors held in the solver's vector precision VT (fp32 in
// the inner levels of F3R; reductions over fp16 inputs accumulate fp32).
//
// The Arnoldi basis V and the preconditioned basis Z live in single
// contiguous row-major buffers (vector j at offset j·n), and the CGS
// projection / correction / normalization run through the fused kernels in
// base/blas_block.hpp (dot_many / axpy_many / scal_copy): one pass over the
// basis block per step instead of 2(j+1) blas1 launches re-reading w.  The
// fused kernels reproduce the blas1 operation sequence bit-for-bit (see
// blas_block.hpp), so only the schedule changed, not the math.
//
// Lifecycle (the setup/solve split): construction binds the configuration;
// setup(a, m) binds a matrix/preconditioner pair and acquires every buffer
// from a SolverWorkspace — an external one shared across solvers and
// matrices, or a private fallback.  After setup, run()/apply() perform no
// allocation, and a later setup() against an equally-sized (or smaller)
// system reuses the same memory.
//
// The same class serves two roles:
//   * inner solver: apply() — solve A z ≈ v from a zero initial guess for
//     exactly m iterations, no convergence test (the paper checks
//     convergence only in the outermost solver);
//   * outer solver: run() — iterate from a given x with an absolute
//     residual target, reporting the Givens residual estimate.  The
//     restart loop around it lives in NestedSolver::solve, which also
//     runs the flat FGMRES(m) baseline as the one-level tuple (F^m, M).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "base/workspace.hpp"
#include "krylov/operator.hpp"
#include "precond/preconditioner.hpp"

namespace nk {

template <class VT>
class FgmresSolver final : public Preconditioner<VT> {
 public:
  /// Scalar type of the Arnoldi/QR data (fp32 for VT=half).
  using S = acc_t<VT>;

  struct Config {
    int m = 8;  ///< Krylov dimension per invocation / restart cycle
    /// Dynamic inner termination (the paper's second future-work item):
    /// when > 0 and the solver is used as an inner solver (apply()), stop
    /// as soon as the Givens residual estimate has dropped below
    /// inner_rtol · ‖v‖ instead of always running all m iterations.
    double inner_rtol = 0.0;
  };

  struct RunStats {
    int iters = 0;                 ///< Arnoldi steps performed
    double residual_est = 0.0;     ///< Givens estimate of ‖b − Ax‖₂
    bool reached_target = false;
    /// Terminal-cause markers for the engines' SolveStatus attribution:
    /// `breakdown` = the eps-scaled hj1 test ended the cycle with finite
    /// arithmetic (possibly a lucky breakdown — the caller still checks the
    /// true residual); `non_finite` = a NaN/Inf norm (beta or hj1) ended it.
    bool breakdown = false;
    bool non_finite = false;
  };

  /// Deferred-setup construction: no matrix bound, no memory acquired.
  /// `ws` (optional) is the workspace every buffer is drawn from under
  /// `key`-prefixed names; null → a private workspace.
  explicit FgmresSolver(Config cfg, SolverWorkspace* ws = nullptr,
                        std::string key = "fgmres")
      : cfg_(cfg), ws_(ws), key_(std::move(key)) {}

  /// Construct and set up in one step (the pre-workspace API).
  FgmresSolver(Operator<VT>& a, Preconditioner<VT>& m, Config cfg,
               SolverWorkspace* ws = nullptr, std::string key = "fgmres")
      : FgmresSolver(cfg, ws, std::move(key)) {
    setup(a, m);
  }

  // Buffer spans point into own_ (or the shared workspace); a copy would
  // alias them.  Two live solvers on one workspace need distinct keys.
  FgmresSolver(const FgmresSolver&) = delete;
  FgmresSolver& operator=(const FgmresSolver&) = delete;

  /// Bind a system and acquire workspace.  Runs once per matrix; repeated
  /// setup against a same-sized system performs zero allocation.
  void setup(Operator<VT>& a, Preconditioner<VT>& m) {
    a_ = &a;
    m_ = &m;
    n_ = static_cast<std::size_t>(a.size());
    const std::size_t mm = static_cast<std::size_t>(cfg_.m);
    SolverWorkspace& w = wsref();
    this->set_backend(w.backend());  // kernel dispatch follows the workspace
    vbuf_ = w.get<VT>(key_ + ".V", (mm + 1) * n_);
    zbuf_ = w.get<VT>(key_ + ".Z", mm * n_);
    w_ = w.get<VT>(key_ + ".w", n_);
    h_ = w.get<S>(key_ + ".h", (mm + 1) * mm);
    g_ = w.get<S>(key_ + ".g", mm + 1);
    cs_ = w.get<S>(key_ + ".cs", mm);
    sn_ = w.get<S>(key_ + ".sn", mm);
    y_ = w.get<S>(key_ + ".y", mm);
    hcol_ = w.get<S>(key_ + ".hcol", mm + 1);
    // V and Z are not cleared: run() writes column j of each before any
    // kernel reads it, so the pages of columns a solve never reaches are
    // never touched (an outer FGMRES(100) that converges in 2 iterations
    // commits 5 of its 201 basis columns).
    std::fill(h_.begin(), h_.end(), S{0});
  }

  /// Inner-solver interface: z ≈ A⁻¹ v, zero initial guess, m iterations
  /// (fewer when Config::inner_rtol enables dynamic termination).
  void apply(std::span<const VT> v, std::span<VT> z) override {
    this->kern_table().set_zero(z);
    double target = 0.0;
    if (cfg_.inner_rtol > 0.0)
      target = cfg_.inner_rtol * static_cast<double>(this->kern_table().nrm2(v));
    run(v, z, target, /*x_nonzero=*/false);
  }

  /// Outer-solver interface: continue from x; stop when the Givens residual
  /// estimate drops below `abs_target` (0 → run all m iterations).
  RunStats run(std::span<const VT> b, std::span<VT> x, double abs_target,
               bool x_nonzero = true) {
    const auto n = b.size();
    RunStats stats;

    // r0 (x = 0 ⇒ r0 = b without an SpMV).
    if (x_nonzero) {
      a_->residual(b, std::span<const VT>(x.data(), n), vcol(0));
    } else {
      this->kern_table().copy(b, vcol(0));
    }
    const S beta = this->kern_table().nrm2(std::span<const VT>(vcol(0)));
    if (!(static_cast<double>(beta) > 0.0) || !std::isfinite(static_cast<double>(beta))) {
      stats.residual_est = static_cast<double>(beta);
      stats.non_finite = !std::isfinite(static_cast<double>(beta));
      stats.reached_target = static_cast<double>(beta) <= abs_target;
      return stats;
    }
    this->kern_table().scal(S{1} / beta, vcol(0));
    std::fill(g_.begin(), g_.end(), S{0});
    g_[0] = beta;

    const int m = cfg_.m;
    int j = 0;
    for (; j < m; ++j) {
      // Flexible preconditioning: z_j = M⁻¹ v_j (M may itself be a solver).
      m_->apply(std::span<const VT>(vcol(j)), zcol(j));
      a_->apply(std::span<const VT>(zcol(j)), std::span<VT>(w_));

      // Classical Gram-Schmidt: all projections against the ORIGINAL w,
      // fused — one sweep over the contiguous basis block for the j+1
      // dots, one read-modify-write of w for the j+1 corrections.
      this->kern_table().dot_many(vbuf_.data(), static_cast<std::ptrdiff_t>(n_), j + 1,
                     std::span<const VT>(w_.data(), n_), hcol_.data());
      this->kern_table().axpy_many(vbuf_.data(), static_cast<std::ptrdiff_t>(n_), j + 1, hcol_.data(),
                      std::span<VT>(w_.data(), n_), /*subtract=*/true);
      S hj1 = this->kern_table().nrm2(std::span<const VT>(w_.data(), n_));

      const double res = givens_update(hcol_.data(), g_.data(), cs_.data(), sn_.data(),
                                       h_.data(), j, hj1);
      ++total_iterations_;
      if (iter_log_ != nullptr) iter_log_->push_back(res);
      const bool breakdown =
          !(static_cast<double>(hj1) > breakdown_tol_ * static_cast<double>(beta));
      if (breakdown || (abs_target > 0.0 && res <= abs_target)) {
        stats.reached_target = res <= abs_target || breakdown;
        stats.breakdown = breakdown && std::isfinite(static_cast<double>(hj1));
        stats.non_finite = breakdown && !std::isfinite(static_cast<double>(hj1));
        ++j;
        break;
      }
      // Normalize the next basis vector: v_{j+1} = w/h in a single write
      // (w is scratch and is rebuilt by the next A·z, so it need not be
      // scaled in place).
      this->kern_table().scal_copy(S{1} / hj1, std::span<const VT>(w_.data(), n_), vcol(j + 1));
    }
    stats.iters = std::min(j, m);
    stats.residual_est = std::abs(static_cast<double>(g_[std::min(j, m)]));

    // Back substitution R y = g and update x += Z y.
    back_substitute(h_.data(), g_.data(), y_.data(), stats.iters);
    if (stats.iters > 0)
      this->kern_table().axpy_many(zbuf_.data(), static_cast<std::ptrdiff_t>(n_), stats.iters, y_.data(),
                      std::span<VT>(x.data(), n_));  // bound by n_, x may be oversized
    return stats;
  }

  [[nodiscard]] index_t size() const override { return a_->size(); }

  /// Total Arnoldi steps across all invocations (cost-model validation).
  [[nodiscard]] std::uint64_t total_iterations() const { return total_iterations_; }

  /// Optional per-iteration log: run() appends the absolute Givens residual
  /// estimate after every Arnoldi step (used by outer solvers to record
  /// convergence histories).  Pass nullptr to disable.
  void set_iteration_log(std::vector<double>* log) { iter_log_ = log; }

 private:
  [[nodiscard]] SolverWorkspace& wsref() { return ws_ != nullptr ? *ws_ : own_; }

  [[nodiscard]] std::size_t col_major(int i, int j) const {
    return static_cast<std::size_t>(j) * (static_cast<std::size_t>(cfg_.m) + 1) +
           static_cast<std::size_t>(i);
  }

  /// Apply the accumulated Givens rotations to the new column `hcol`, form
  /// the rotation eliminating hj1, update g, and store the column into h.
  /// Returns the updated residual estimate |g[j+1]|.
  double givens_update(S* hcol, S* g, S* cs, S* sn, S* h, int j, S hj1) {
    for (int i = 0; i < j; ++i) {
      const S t = cs[i] * hcol[i] + sn[i] * hcol[i + 1];
      hcol[i + 1] = -sn[i] * hcol[i] + cs[i] * hcol[i + 1];
      hcol[i] = t;
    }
    const S denom = std::sqrt(hcol[j] * hcol[j] + hj1 * hj1);
    if (static_cast<double>(denom) > 0.0 && std::isfinite(static_cast<double>(denom))) {
      cs[j] = hcol[j] / denom;
      sn[j] = hj1 / denom;
    } else {
      cs[j] = S{1};
      sn[j] = S{0};
    }
    hcol[j] = cs[j] * hcol[j] + sn[j] * hj1;
    g[j + 1] = -sn[j] * g[j];
    g[j] = cs[j] * g[j];
    for (int i = 0; i <= j; ++i) h[col_major(i, j)] = hcol[i];
    return std::abs(static_cast<double>(g[j + 1]));
  }

  /// Solve the k×k upper-triangular system R y = g (in-place arrays).
  void back_substitute(const S* h, const S* g, S* y, int k) const {
    for (int i = k - 1; i >= 0; --i) {
      S s = g[i];
      for (int l = i + 1; l < k; ++l) s -= h[col_major(i, l)] * y[l];
      const S hii = h[col_major(i, i)];
      y[i] = (hii != S{0}) ? s / hii : S{0};
    }
  }

  /// Column j of the contiguous Arnoldi basis (row-major, stride n).
  [[nodiscard]] std::span<VT> vcol(int j) {
    return {vbuf_.data() + static_cast<std::size_t>(j) * n_, n_};
  }
  /// Column j of the contiguous preconditioned basis.
  [[nodiscard]] std::span<VT> zcol(int j) {
    return {zbuf_.data() + static_cast<std::size_t>(j) * n_, n_};
  }

  Operator<VT>* a_ = nullptr;
  Preconditioner<VT>* m_ = nullptr;
  Config cfg_;
  std::size_t n_ = 0;

  SolverWorkspace* ws_ = nullptr;  ///< shared workspace (null → own_)
  SolverWorkspace own_;
  std::string key_;

  std::span<VT> vbuf_;  ///< Arnoldi basis V, (m+1)·n contiguous row-major
  std::span<VT> zbuf_;  ///< preconditioned basis Z, m·n contiguous
  std::span<VT> w_;
  std::span<S> h_, g_, cs_, sn_, y_, hcol_;
  std::vector<double>* iter_log_ = nullptr;
  std::uint64_t total_iterations_ = 0;
  // Breakdown threshold on hj1 relative to the cycle's initial residual
  // norm.  A numerically dependent Arnoldi vector leaves hj1 at the CGS
  // rounding-noise level, which is O(ε_S·β) for working scalar type S — a
  // fixed 1e-14 is therefore precision-blind: with fp32/fp16 inner
  // arithmetic (ε ≈ 1.2e-7) a genuine breakdown yields hj1 ≈ ε·β ≫ 1e-14·β,
  // the test never fires, and the cycle keeps orthogonalizing noise.
  // Scale by the working epsilon; the max() keeps the fp64 threshold at its
  // long-standing 1e-14 (16·ε_fp64 ≈ 3.6e-15 < 1e-14), so fp64 iterate
  // streams — and the committed conformance baseline — are unchanged.
  static constexpr double breakdown_tol_ =
      std::max(1e-14, 16.0 * static_cast<double>(std::numeric_limits<S>::epsilon()));
};

}  // namespace nk
