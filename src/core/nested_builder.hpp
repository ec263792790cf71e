// The nested Krylov framework: composing solvers as preconditioners.
//
// A nested solver (S⁽¹⁾, S⁽²⁾, …, S⁽ᴰ⁾, M) in the paper's tuple notation is
// realized here as an object tree: each level owns a typed solver
// (FGMRES or Richardson) whose preconditioner is either the next level
// (wrapped in a precision bridge when the vector precisions differ) or the
// primary preconditioner M at the innermost level.  Convergence is checked
// only in the outermost solver; restarting re-runs the whole tuple.
//
// Per the paper's Table 1, every level declares the storage precision of A
// (a dedicated CSR/SELL copy is created per precision actually used) and
// of its vectors; the innermost level also fixes the storage precision of
// M.  Example — fp16-F3R:
//
//   level 0: FGMRES(100)  A fp64, vectors fp64
//   level 1: FGMRES(8)    A fp32, vectors fp32
//   level 2: FGMRES(4)    A fp16, vectors fp32  (SpMV runs in fp32)
//   level 3: Richardson(2) A fp16, vectors fp16, M fp16, adaptive ω (c=64)
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/kernels.hpp"
#include "base/backend.hpp"
#include "base/half.hpp"
#include "base/timer.hpp"
#include "base/workspace.hpp"
#include "krylov/fgmres.hpp"
#include "krylov/history.hpp"
#include "krylov/operator.hpp"
#include "krylov/richardson.hpp"
#include "precond/preconditioner.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace nk {

/// One storage precision's copy of A.  Only the fp64 copy owns indices —
/// the paper's one set of 32-bit indices for values stored "in fp64, fp32,
/// and fp16" — so a lower copy is values only: over the fp64 CSR pattern,
/// or, when the operators run sliced ELLPACK, over the fp64 slice
/// structure, with no CSR copy at all (the operators never read it).
template <class P>
struct MatrixCopy {
  std::optional<CsrValues<P>> csr;    ///< unset when `sell` is set
  std::optional<SellValues<P>> sell;
};

/// The fp64 copy: A itself in CSR (every fp64 residual reads it), plus
/// sliced ELLPACK when the operators use it.  Shared pointers, because the
/// lower copies hold on to their structure.
template <>
struct MatrixCopy<double> {
  std::shared_ptr<const CsrMatrix<double>> csr;
  std::shared_ptr<const SellMatrix<double>> sell;  ///< null unless use_sell
};

/// Cast A's values to another storage precision, over the fp64 copy's
/// structure (SELL when present, else CSR).
template <class Dst>
MatrixCopy<Dst> cast_factors(const MatrixCopy<double>& m) {
  MatrixCopy<Dst> out;
  if (m.sell) out.sell = cast_values<Dst>(m.sell, m.sell->vals);
  else out.csr = cast_values<Dst>(m.csr, m.csr->vals);
  return out;
}

/// Matrix copies per storage precision, CSR or sliced ELLPACK.  F3R
/// "requires storing matrix values in fp64, fp32, and fp16"; the fp32/fp16
/// copies come from a PrecCopies ladder, so each is cast once, for the
/// precisions a configuration uses, on its first make_operator — and safely
/// when Sessions sharing this matrix make their first operators at the same
/// time.  fp16-F3R thus holds 18 B/nnz of A (8 + 4 + 2 of values, one 4 B
/// column index), not the 26 that three full CSR copies would take.
class MultiPrecMatrix {
 public:
  /// `use_sell` switches every operator to the sliced-ELLPACK kernels (the
  /// paper's GPU storage; chunk 32).
  explicit MultiPrecMatrix(CsrMatrix<double> a, bool use_sell = false, int sell_chunk = 32);

  [[nodiscard]] index_t size() const { return csr_fp64().nrows; }
  [[nodiscard]] const CsrMatrix<double>& csr_fp64() const {
    return *copies_.get<double>()->csr;
  }
  [[nodiscard]] bool uses_sell() const { return copies_.get<double>()->sell != nullptr; }

  /// The copy at storage precision P, minted on first request as by
  /// make_operator; the reference is stable for this object's lifetime.
  template <class P>
  [[nodiscard]] const MatrixCopy<P>& copy() const {
    return *copies_.get<P>();
  }

  /// Create a typed operator (vector type VT over storage precision `mp`)
  /// whose products run on backend `be`.  The operator references matrix
  /// data owned by this object.
  template <class VT>
  std::unique_ptr<Operator<VT>> make_operator(Prec mp, Backend be = Backend::kHost);

  /// Total bytes of matrix storage materialized so far, values and indices,
  /// each index array counted once (the paper notes the value replication
  /// "incurs an overhead" on cache-limited nodes).
  [[nodiscard]] std::size_t bytes() const;

 private:
  PrecCopies<MatrixCopy> copies_;
};

/// Converts between the vector precisions of adjacent nesting levels:
/// implements Preconditioner<Outer> by converting the residual down to the
/// inner precision, invoking the inner solver, and converting the
/// correction back up.  Conversion scratch comes from the (optional)
/// SolverWorkspace so rebuilding a tuple against a new same-sized matrix
/// reuses the buffers.
template <class Outer, class Inner>
class PrecisionBridge final : public Preconditioner<Outer> {
 public:
  explicit PrecisionBridge(Preconditioner<Inner>* inner, SolverWorkspace* ws = nullptr,
                           const std::string& key = "bridge")
      : inner_(inner) {
    const std::size_t n = static_cast<std::size_t>(inner->size());
    SolverWorkspace& w = ws != nullptr ? *ws : own_;
    this->set_backend(w.backend());  // converts dispatch with the pipeline
    rin_ = w.get<Inner>(key + ".rin", n);
    zin_ = w.get<Inner>(key + ".zin", n);
  }

  // The scratch spans point into own_ (or the shared workspace); a copy
  // would alias them.
  PrecisionBridge(const PrecisionBridge&) = delete;
  PrecisionBridge& operator=(const PrecisionBridge&) = delete;

  void apply(std::span<const Outer> r, std::span<Outer> z) override {
    this->kern_table().convert(r, rin_);
    inner_->apply(std::span<const Inner>(rin_.data(), rin_.size()),
                  std::span<Inner>(zin_.data(), zin_.size()));
    this->kern_table().convert(std::span<const Inner>(zin_.data(), zin_.size()), z);
  }
  [[nodiscard]] index_t size() const override { return inner_->size(); }

 private:
  Preconditioner<Inner>* inner_;
  SolverWorkspace own_;
  std::span<Inner> rin_, zin_;
};

enum class SolverKind { FGMRES, Richardson, Chebyshev };

/// One level of the tuple (S⁽ᵈ⁾ and its precisions).
struct LevelSpec {
  SolverKind kind = SolverKind::FGMRES;
  int m = 8;             ///< iterations per invocation
  Prec mat = Prec::FP64;  ///< storage precision of A at this level
  Prec vec = Prec::FP64;  ///< vector precision of this level
  // FGMRES-only: dynamic inner termination (0 = fixed m iterations; the
  // paper's future-work item 2).  Ignored at the outermost level.
  double inner_rtol = 0.0;
  // Richardson-only settings (Algorithm 1):
  int cycle = 64;
  bool adaptive = true;
  float fixed_weight = 1.0f;
  // Chebyshev-only: λmin = λmax / eig_ratio for the ellipse bounds.
  double eig_ratio = 10.0;
};

/// Full nested-solver description.
struct NestedConfig {
  std::string name = "nested";
  std::vector<LevelSpec> levels;   ///< outermost first; levels[0] must be
                                   ///< fp64 FGMRES (the paper's setting)
  Prec precond_storage = Prec::FP64;  ///< storage precision of M
};

/// Termination control for the outer solve.
struct Termination {
  double rtol = 1e-8;    ///< on true fp64 ‖b−Ax‖/‖b‖
  int max_restarts = 3;  ///< the paper restarts F3R at most 3×  (300 outer its)
  /// Outer-iteration budget, checked before every restart cycle (a cycle
  /// that starts runs to its end).  The fgmres kind is bounded by this
  /// alone; f3r and the Table 4 variants leave it uncapped.
  int max_iters = std::numeric_limits<int>::max();
  bool record_history = true;
  /// Stagnation guard at restart-cycle granularity: stop with kStagnated
  /// after this many consecutive cycles without true-residual progress
  /// (relres failing to improve on 0.99× the best seen).  0 = off.
  int stagnate_window = 0;
};

/// A fully built nested solver, ready to solve repeatedly.
///
/// Setup/solve split: construction is the setup phase — it materializes
/// the per-precision matrix copies (minted once inside MultiPrecMatrix and
/// shared by every tuple built on it), mints
/// the preconditioner apply handles, and acquires every level's Krylov
/// buffers.  With an external SolverWorkspace those buffers are drawn from
/// the shared pool under "lvl<d>."-prefixed keys, so building a second
/// tuple of the same shape (new matrix, same sizes) allocates nothing.
/// solve() and solve_many() then run with zero per-call allocation beyond
/// the optional convergence history.
class NestedSolver {
 public:
  /// Builds all operators, bridges, and level solvers.  `a` and `m` must
  /// outlive this object; `ws` (optional, must outlive this object too)
  /// supplies every level's buffers under `ws_prefix` + "lvl<d>." keys.
  /// Two tuples kept ALIVE on one workspace need distinct prefixes (see
  /// workspace.hpp's one-live-consumer-per-key rule); sequential rebuilds
  /// reuse the default prefix — that is what makes them allocation-free.
  NestedSolver(std::shared_ptr<MultiPrecMatrix> a, std::shared_ptr<PrimaryPrecond> m,
               NestedConfig cfg, SolverWorkspace* ws = nullptr,
               std::string ws_prefix = "");

  /// Solve A x = b (x holds the initial guess, normally 0).  Restarts the
  /// whole tuple up to term.max_restarts times while fewer than
  /// term.max_iters outer iterations have run.
  SolveResult solve(std::span<const double> b, std::span<double> x, const Termination& term);

  /// Batched solve: k systems sharing this tuple's setup (column c of B/X
  /// at b + c·ldb / x + c·ldx).  Columns are solved in order through
  /// solve() rather than in lockstep: the innermost Richardson's adaptive
  /// weights (Algorithm 1) are shared state whose update schedule is part
  /// of the math, so per-column agreement with k sequential solve() calls
  /// — which the conformance tests pin exactly — requires preserving the
  /// invocation order.  What batching amortizes here is the setup: matrix
  /// format conversions, preconditioner factorization, and every level's
  /// workspace are built once for the whole batch.
  std::vector<SolveResult> solve_many(const double* b, std::ptrdiff_t ldb, double* x,
                                      std::ptrdiff_t ldx, int k, const Termination& term);

  [[nodiscard]] const NestedConfig& config() const { return cfg_; }
  [[nodiscard]] index_t size() const { return a_->size(); }

  /// Innermost Richardson weights (empty if the configuration has none) —
  /// exposed for the Section 6.3 experiments and tests.
  [[nodiscard]] std::vector<float> richardson_weights() const;

  /// Reset adaptive state (Richardson weights/counters) between systems.
  void reset_state();

 private:
  template <class VT>
  Preconditioner<VT>* build_level(std::size_t d);

  std::shared_ptr<MultiPrecMatrix> a_;
  std::shared_ptr<PrimaryPrecond> m_;
  NestedConfig cfg_;
  kern::Kernels kx_;               ///< outer-loop kernels on the build backend
  SolverWorkspace* ws_ = nullptr;  ///< external workspace (null → levels own theirs)
  std::string ws_prefix_;          ///< key prefix isolating this tuple in ws_

  // Ownership of all typed level objects; raw pointers below reference these.
  std::vector<std::shared_ptr<void>> owned_;
  FgmresSolver<double>* outer_ = nullptr;
  Operator<double>* outer_op_ = nullptr;
  // Richardson levels (any precision) for weight inspection / reset.
  std::vector<std::function<std::vector<float>()>> weight_probes_;
  std::vector<std::function<void()>> state_resets_;
};

/// Validates a NestedConfig (throws nk::SpecError, a std::invalid_argument
/// subclass, with a message).
void validate(const NestedConfig& cfg);

/// "(F^100, F^8, F^4, R^2, M)"-style rendering of a configuration.
std::string tuple_notation(const NestedConfig& cfg);

}  // namespace nk
