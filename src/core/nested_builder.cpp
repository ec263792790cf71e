#include "core/nested_builder.hpp"

#include <sstream>
#include <stdexcept>

#include "core/spec.hpp"
#include "krylov/chebyshev.hpp"

namespace nk {

// ---------------------------------------------------------------- matrices

namespace {

MatrixCopy<double> square_copy(CsrMatrix<double> a, bool use_sell, int sell_chunk) {
  // SpecError subclasses std::invalid_argument, so legacy catch sites keep
  // working while the library path (Session) reports kInvalidInput.
  if (a.nrows != a.ncols) throw SpecError("MultiPrecMatrix: matrix must be square");
  MatrixCopy<double> c{std::make_shared<const CsrMatrix<double>>(std::move(a)), nullptr};
  if (use_sell)
    c.sell = std::make_shared<const SellMatrix<double>>(csr_to_sell(*c.csr, sell_chunk));
  return c;
}

template <class VT, class P>
std::unique_ptr<Operator<VT>> operator_over(const MatrixCopy<P>& c, Backend be) {
  if (c.sell) return std::make_unique<SellOperator<P, VT>>(*c.sell, be);
  return std::make_unique<CsrOperator<P, VT>>(*c.csr, be);
}

}  // namespace

MultiPrecMatrix::MultiPrecMatrix(CsrMatrix<double> a, bool use_sell, int sell_chunk)
    : copies_(std::make_shared<const MatrixCopy<double>>(
          square_copy(std::move(a), use_sell, sell_chunk))) {}

template <class VT>
std::unique_ptr<Operator<VT>> MultiPrecMatrix::make_operator(Prec mp, Backend be) {
  switch (mp) {
    case Prec::FP64: return operator_over<VT>(*copies_.get<double>(), be);
    case Prec::FP32: return operator_over<VT>(*copies_.get<float>(), be);
    case Prec::FP16: return operator_over<VT>(*copies_.get<half>(), be);
  }
  throw std::logic_error("MultiPrecMatrix: bad precision");
}

template std::unique_ptr<Operator<double>> MultiPrecMatrix::make_operator<double>(Prec,
                                                                                  Backend);
template std::unique_ptr<Operator<float>> MultiPrecMatrix::make_operator<float>(Prec,
                                                                                Backend);
template std::unique_ptr<Operator<half>> MultiPrecMatrix::make_operator<half>(Prec,
                                                                              Backend);

std::size_t MultiPrecMatrix::bytes() const {
  const MatrixCopy<double>& c64 = *copies_.get<double>();
  std::size_t b = c64.csr->index_bytes() + c64.csr->vals.size() * sizeof(double);
  if (c64.sell) b += c64.sell->index_bytes() + c64.sell->vals.size() * sizeof(double);
  const auto add = [&b]<class P>(const std::shared_ptr<const MatrixCopy<P>>& c) {
    if (!c) return;
    if (c->csr) b += c->csr->vals.size() * sizeof(P);
    if (c->sell) b += c->sell->vals.size() * sizeof(P);
  };
  add(copies_.minted<float>());
  add(copies_.minted<half>());
  return b;
}

// -------------------------------------------------------------- validation

void validate(const NestedConfig& cfg) {
  if (cfg.levels.empty()) throw SpecError("NestedConfig: no levels");
  const LevelSpec& outer = cfg.levels.front();
  if (outer.kind != SolverKind::FGMRES || outer.vec != Prec::FP64 || outer.mat != Prec::FP64)
    throw SpecError(
        "NestedConfig: the outermost level must be fp64 FGMRES (the paper's setting)");
  for (const LevelSpec& lv : cfg.levels) {
    if (lv.m <= 0) throw SpecError("NestedConfig: level iteration count must be > 0");
    if (lv.kind == SolverKind::Richardson && lv.cycle <= 0)
      throw SpecError("NestedConfig: Richardson cycle must be > 0");
  }
}

std::string tuple_notation(const NestedConfig& cfg) {
  std::ostringstream os;
  os << "(";
  for (const LevelSpec& lv : cfg.levels) {
    const char* tag = lv.kind == SolverKind::FGMRES      ? "F^"
                      : lv.kind == SolverKind::Richardson ? "R^"
                                                          : "C^";
    os << tag << lv.m << ", ";
  }
  os << "M)";
  return os.str();
}

// ----------------------------------------------------------------- builder

NestedSolver::NestedSolver(std::shared_ptr<MultiPrecMatrix> a,
                           std::shared_ptr<PrimaryPrecond> m, NestedConfig cfg,
                           SolverWorkspace* ws, std::string ws_prefix)
    : a_(std::move(a)), m_(std::move(m)), cfg_(std::move(cfg)),
      kx_(ws != nullptr ? ws->backend() : Backend::kHost), ws_(ws),
      ws_prefix_(std::move(ws_prefix)) {
  validate(cfg_);
  if (m_->size() != a_->size())
    throw SpecError("NestedSolver: matrix/preconditioner size mismatch");

  // Build the preconditioning pipeline below the outermost level, then the
  // outermost fp64 FGMRES itself.
  Preconditioner<double>* below;
  if (cfg_.levels.size() == 1) {
    auto handle = m_->make_apply<double>(cfg_.precond_storage);
    handle->set_backend(kx_.backend());
    below = handle.get();
    owned_.push_back(std::shared_ptr<void>(std::move(handle)));
  } else {
    const Prec child_vec = cfg_.levels[1].vec;
    switch (child_vec) {
      case Prec::FP64:
        below = build_level<double>(1);
        break;
      case Prec::FP32: {
        auto* child = build_level<float>(1);
        auto bridge = std::make_shared<PrecisionBridge<double, float>>(
            child, ws_, ws_prefix_ + "lvl0.bridge");
        below = bridge.get();
        owned_.push_back(bridge);
        break;
      }
      case Prec::FP16: {
        auto* child = build_level<half>(1);
        auto bridge = std::make_shared<PrecisionBridge<double, half>>(
            child, ws_, ws_prefix_ + "lvl0.bridge");
        below = bridge.get();
        owned_.push_back(bridge);
        break;
      }
      default:
        throw std::logic_error("NestedSolver: bad child precision");
    }
  }

  auto op = a_->make_operator<double>(cfg_.levels[0].mat, kx_.backend());
  outer_op_ = op.get();
  owned_.push_back(std::shared_ptr<void>(std::move(op)));
  auto outer = std::make_shared<FgmresSolver<double>>(
      *outer_op_, *below, FgmresSolver<double>::Config{cfg_.levels[0].m}, ws_,
      ws_prefix_ + "lvl0.fgmres");
  outer_ = outer.get();
  owned_.push_back(outer);
}

template <class VT>
Preconditioner<VT>* NestedSolver::build_level(std::size_t d) {
  const LevelSpec& lv = cfg_.levels[d];
  const std::string lvl_key = ws_prefix_ + "lvl" + std::to_string(d);
  // Operator for this level.
  auto op_owned = a_->make_operator<VT>(lv.mat, kx_.backend());
  Operator<VT>* op = op_owned.get();
  owned_.push_back(std::shared_ptr<void>(std::move(op_owned)));

  // Preconditioner of this level: the next level, or the primary M.
  Preconditioner<VT>* below;
  if (d + 1 == cfg_.levels.size()) {
    auto handle = m_->make_apply<VT>(cfg_.precond_storage);
    handle->set_backend(kx_.backend());
    below = handle.get();
    owned_.push_back(std::shared_ptr<void>(std::move(handle)));
  } else {
    const Prec child_vec = cfg_.levels[d + 1].vec;
    auto attach = [&]<class CV>(Preconditioner<CV>* child) -> Preconditioner<VT>* {
      if constexpr (std::is_same_v<CV, VT>) {
        return child;
      } else {
        auto bridge =
            std::make_shared<PrecisionBridge<VT, CV>>(child, ws_, lvl_key + ".bridge");
        owned_.push_back(bridge);
        return bridge.get();
      }
    };
    switch (child_vec) {
      case Prec::FP64: below = attach(build_level<double>(d + 1)); break;
      case Prec::FP32: below = attach(build_level<float>(d + 1)); break;
      case Prec::FP16: below = attach(build_level<half>(d + 1)); break;
      default: throw std::logic_error("NestedSolver: bad child precision");
    }
  }

  if (lv.kind == SolverKind::FGMRES) {
    typename FgmresSolver<VT>::Config fc;
    fc.m = lv.m;
    fc.inner_rtol = lv.inner_rtol;
    auto solver =
        std::make_shared<FgmresSolver<VT>>(*op, *below, fc, ws_, lvl_key + ".fgmres");
    owned_.push_back(solver);
    return solver.get();
  }

  if (lv.kind == SolverKind::Chebyshev) {
    typename ChebyshevSolver<VT>::Config cc;
    cc.m = lv.m;
    cc.eig_ratio = lv.eig_ratio;
    auto solver = std::make_shared<ChebyshevSolver<VT>>(*op, *below, cc, kx_.backend());
    owned_.push_back(solver);
    return solver.get();
  }

  // Richardson: when vectors are fp16 the ω' computation needs a separate
  // fp32-accumulating operator over the same (fp16) matrix storage.
  Operator<float>* op32 = nullptr;
  if constexpr (std::is_same_v<VT, half>) {
    auto op32_owned = a_->make_operator<float>(lv.mat, kx_.backend());
    op32 = op32_owned.get();
    owned_.push_back(std::shared_ptr<void>(std::move(op32_owned)));
  }
  typename RichardsonSolver<VT>::Config rc;
  rc.m = lv.m;
  rc.cycle = lv.cycle;
  rc.adaptive = lv.adaptive;
  rc.fixed_weight = lv.fixed_weight;
  auto solver = std::make_shared<RichardsonSolver<VT>>(*op, *below, rc, op32, ws_,
                                                       lvl_key + ".richardson");
  owned_.push_back(solver);
  weight_probes_.push_back([s = solver.get()] { return s->weights(); });
  state_resets_.push_back([s = solver.get()] { s->reset_state(); });
  return solver.get();
}

// --------------------------------------------------------------- solving

SolveResult NestedSolver::solve(std::span<const double> b, std::span<double> x,
                                const Termination& term) {
  SolveResult res;
  res.solver = cfg_.name;
  WallTimer timer;

  const std::uint64_t m_calls0 = m_->invocations();
  const std::uint64_t spmv0 = outer_op_->spmv_count();

  const double bnorm = static_cast<double>(kx_.nrm2(b));
  const double bref = bnorm > 0.0 ? bnorm : 1.0;
  const double target = term.rtol * bref;

  std::vector<double> estimates;
  outer_->set_iteration_log(term.record_history ? &estimates : nullptr);

  // Restart loop with status attribution: convergence is judged on the
  // true fp64 residual only; the outer cycle's terminal markers (Arnoldi
  // breakdown / non-finite norm) name WHY a failed attempt stopped.
  StagnationGuard stag;
  bool x_nonzero = kx_.nrm2(std::span<const double>(x.data(), x.size())) > 0.0;
  // The break at the loop's end stops the counter AT max_restarts, so an
  // unbounded cap (INT_MAX) cannot overflow it.
  for (int cycle = 0; cycle <= term.max_restarts && res.iterations < term.max_iters;
       ++cycle) {
    const auto stats = outer_->run(b, x, target, x_nonzero);
    res.iterations += stats.iters;
    res.restarts = cycle;
    x_nonzero = true;
    const double relres = kx_.relative_residual(
        a_->csr_fp64(), std::span<const double>(x.data(), x.size()), b);
    res.final_relres = relres;
    if (relres < term.rtol) {
      res.mark_converged();
      break;
    }
    if (!std::isfinite(relres)) {
      res.fail(SolveStatus::kNonFinite, stats.non_finite ? "hj1" : "relres");
      break;
    }
    if (stats.iters == 0) {
      // The cycle could not even start (beta zero/non-finite at r0).  A
      // rerun would repeat it, and with only an iteration budget bounding
      // the loop it would never end.
      res.fail(stats.non_finite ? SolveStatus::kNonFinite : SolveStatus::kBreakdown,
               "beta");
      break;
    }
    // Attribute the terminal cause WITHOUT altering the restart control
    // flow (restart-on-breakdown is the conformance-pinned behavior: the
    // cycle's x update may still make progress).  If the budget runs out,
    // the last cycle's markers say why.
    if (stats.non_finite) {
      res.fail(SolveStatus::kNonFinite, "hj1");
    } else if (stats.breakdown) {
      res.fail(SolveStatus::kBreakdown, "hj1");
    } else {
      res.fail(SolveStatus::kMaxIters);
    }
    if (stag.stalled(res, relres, term.stagnate_window, "relres")) break;
    if (cycle == term.max_restarts) break;
  }
  outer_->set_iteration_log(nullptr);

  if (term.record_history) {
    res.history.reserve(estimates.size());
    for (double e : estimates) res.history.push_back(e / bref);
  }
  res.precond_invocations = m_->invocations() - m_calls0;
  res.spmv_count = outer_op_->spmv_count() - spmv0;
  res.seconds = timer.seconds();
  return res;
}

std::vector<SolveResult> NestedSolver::solve_many(const double* b, std::ptrdiff_t ldb,
                                                  double* x, std::ptrdiff_t ldx, int k,
                                                  const Termination& term) {
  std::vector<SolveResult> out;
  out.reserve(static_cast<std::size_t>(std::max(k, 0)));
  const std::size_t n = static_cast<std::size_t>(size());
  // Columns run in invocation order (see the header): identical to k
  // sequential solve() calls by construction, with the tuple's entire
  // setup — matrix copies, factors, level workspaces — shared.
  for (int c = 0; c < k; ++c)
    out.push_back(solve(std::span<const double>(b + static_cast<std::ptrdiff_t>(c) * ldb, n),
                        std::span<double>(x + static_cast<std::ptrdiff_t>(c) * ldx, n),
                        term));
  return out;
}

std::vector<float> NestedSolver::richardson_weights() const {
  std::vector<float> out;
  for (const auto& probe : weight_probes_) {
    const auto w = probe();
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

void NestedSolver::reset_state() {
  for (const auto& r : state_resets_) r();
}

}  // namespace nk
