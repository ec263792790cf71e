#include "krylov/cg.hpp"

#include <cmath>

#include "base/blas_block.hpp"

namespace nk {

template <class VT>
SolveResult CgSolver<VT>::solve(std::span<const VT> b, std::span<VT> x) {
  SolveResult res;
  res.solver = "cg";
  const auto n = b.size();
  std::span<VT> r(r_), z(z_), p(p_), q(q_);

  const double bnorm = static_cast<double>(kx_.nrm2(b));
  const double target = cfg_.rtol * (bnorm > 0.0 ? bnorm : 1.0);

  a_->residual(b, std::span<const VT>(x.data(), n), r);
  double rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
  if (cfg_.record_history) res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
  if (!std::isfinite(bnorm) || !std::isfinite(rnorm)) {
    res.fail(SolveStatus::kNonFinite, "rnorm");
    return res;
  }
  if (rnorm <= target) {
    res.mark_converged();
    return res;
  }
  StagnationGuard stag{rnorm};

  m_->apply(std::span<const VT>(r_), z);
  kx_.copy(std::span<const VT>(z_), p);
  auto rz = kx_.dot(std::span<const VT>(r_), std::span<const VT>(z_));

  for (int it = 1; it <= cfg_.max_iters; ++it) {
    a_->apply(std::span<const VT>(p_), q);
    const auto pq = kx_.dot(std::span<const VT>(p_), std::span<const VT>(q_));
    if (!(std::abs(static_cast<double>(pq)) > 0.0) ||
        !std::isfinite(static_cast<double>(pq))) {
      res.iterations = it;
      res.fail(std::isfinite(static_cast<double>(pq)) ? SolveStatus::kBreakdown
                                                      : SolveStatus::kNonFinite,
               "pivot");
      return res;  // breakdown (matrix not SPD w.r.t. p)
    }
    const auto alpha = rz / pq;
    kx_.axpy(alpha, std::span<const VT>(p_), x);
    kx_.axpy(-alpha, std::span<const VT>(q_), r);

    rnorm = static_cast<double>(kx_.nrm2(std::span<const VT>(r_)));
    if (cfg_.record_history) res.history.push_back(rnorm / (bnorm > 0.0 ? bnorm : 1.0));
    res.iterations = it;
    if (!std::isfinite(rnorm)) {
      res.fail(SolveStatus::kNonFinite, "rnorm");
      return res;
    }
    if (rnorm <= target) {
      res.mark_converged();
      return res;
    }
    if (stag.stalled(res, rnorm, cfg_.stagnate_window, "rnorm")) return res;

    m_->apply(std::span<const VT>(r_), z);
    const auto rz_new = kx_.dot(std::span<const VT>(r_), std::span<const VT>(z_));
    const auto beta = rz_new / rz;
    rz = rz_new;
    kx_.axpby(static_cast<decltype(rz)>(1), std::span<const VT>(z_),
                static_cast<decltype(rz)>(beta), p);
  }
  return res;
}

// Batched CG with active-set compaction.  Survivor columns live in the
// leading `na` columns of the R/Z/P/Q panels; `map[j]` names the original
// column slot j is solving, and retirement swap-removes the slot (column
// data moves verbatim, so per-column arithmetic — and therefore every
// iterate — is solve()'s to the bit).  Every kernel runs at width `na`,
// falling through the compile-time k = 4/8/16 dispatch tiers as the set
// shrinks.  With 0 < wave < k the same loop becomes the ragged-batch
// scheduler: at most `wave` columns are in flight, and pending columns
// are initialized into freed slots at iteration boundaries.
template <class VT>
std::vector<SolveResult> CgSolver<VT>::solve_many(const VT* b, std::ptrdiff_t ldb, VT* x,
                                                  std::ptrdiff_t ldx, int k, int wave) {
  std::vector<SolveResult> res(static_cast<std::size_t>(std::max(k, 0)));
  for (auto& r : res) r.solver = "cg";
  if (k <= 0) return res;
  using S = acc_t<VT>;
  const int W = (wave > 0 && wave < k) ? wave : k;  // dispatch width
  const std::size_t ww = static_cast<std::size_t>(W);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", ww * n_);
  auto Z = w.get<VT>(key_ + ".bat.z", ww * n_);
  auto P = w.get<VT>(key_ + ".bat.p", ww * n_);
  auto Q = w.get<VT>(key_ + ".bat.q", ww * n_);
  auto rz = w.get<S>(key_ + ".bat.rz", ww);
  auto alpha = w.get<S>(key_ + ".bat.alpha", ww);
  auto nalpha = w.get<S>(key_ + ".bat.nalpha", ww);
  auto beta = w.get<S>(key_ + ".bat.beta", ww);
  auto ones = w.get<S>(key_ + ".bat.ones", ww);
  auto red = w.get<S>(key_ + ".bat.red", ww);  // dot/nrm2 results per slot
  auto target = w.get<double>(key_ + ".bat.target", ww);
  auto bref = w.get<double>(key_ + ".bat.bref", ww);
  auto itc = w.get<int>(key_ + ".bat.itc", ww);  // per-column iteration count
  auto map = w.get<int>(key_ + ".bat.map", ww);  // slot → original column
  auto stag = w.get<StagnationGuard>(key_ + ".bat.stag", ww);
  const std::ptrdiff_t nld = static_cast<std::ptrdiff_t>(n_);

  auto col = [&](std::span<VT> blk, int j) {
    return std::span<VT>(blk.data() + static_cast<std::size_t>(j) * n_, n_);
  };
  auto ccol = [&](std::span<VT> blk, int j) {
    return std::span<const VT>(blk.data() + static_cast<std::size_t>(j) * n_, n_);
  };
  auto cptr = [&](std::span<VT> blk, int j) {
    return blk.data() + static_cast<std::ptrdiff_t>(j) * nld;
  };
  for (int j = 0; j < W; ++j) ones[j] = S{1};

  int na = 0;    // live width
  int next = 0;  // head of the pending column queue

  // Initialize original column c into slot j — the exact operation sequence
  // of solve()'s preamble (nrm2_cols/dot_cols at width 1 are bit-identical
  // to the single-threaded blas1 reductions solve() runs).  Returns false
  // when the column finishes at iteration 0 and never occupies the slot.
  auto init_slot = [&](int j, int c) -> bool {
    map[j] = c;
    itc[j] = 0;
    kx_.nrm2_cols(b + static_cast<std::ptrdiff_t>(c) * ldb, ldb, 1, n_, &red[j]);
    const double bnorm = static_cast<double>(red[j]);
    if (!std::isfinite(bnorm)) {
      // Poisoned RHS: retire the column before it ever occupies a slot —
      // the rest of the wave keeps running at full width.
      res[c].fail(SolveStatus::kNonFinite, "b");
      return false;
    }
    bref[j] = bnorm > 0.0 ? bnorm : 1.0;
    target[j] = cfg_.rtol * bref[j];
    VT* r0 = cptr(R, j);
    a_->residual(std::span<const VT>(b + static_cast<std::ptrdiff_t>(c) * ldb, n_),
                 std::span<const VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_),
                 std::span<VT>(r0, n_));
    kx_.nrm2_cols(r0, nld, 1, n_, &red[j]);
    const double rnorm = static_cast<double>(red[j]);
    if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
    if (!std::isfinite(rnorm)) {
      res[c].fail(SolveStatus::kNonFinite, "rnorm");
      return false;
    }
    if (rnorm <= target[j]) {
      res[c].mark_converged();
      return false;
    }
    stag[j] = StagnationGuard{rnorm};
    m_->apply(ccol(R, j), col(Z, j));
    kx_.copy(ccol(Z, j), col(P, j));
    kx_.dot_cols(cptr(R, j), nld, cptr(Z, j), nld, 1, n_, &rz[j]);
    return true;
  };
  auto refill = [&]() {
    while (na < W && next < k)
      if (init_slot(na, next++)) ++na;
  };
  // Swap-remove: move slot src's live state into dst.  Z is pass-local
  // (rewritten by the trailing preconditioner apply before any read) and
  // never moves; Q is live only between A·P and the r update, which spans
  // the one mid-pass retirement site (the pq breakdown check), so it moves.
  auto move_slot = [&](int dst, int src) {
    if (dst == src) return;
    kx_.copy(ccol(R, src), col(R, dst));
    kx_.copy(ccol(P, src), col(P, dst));
    kx_.copy(ccol(Q, src), col(Q, dst));
    rz[dst] = rz[src];
    red[dst] = red[src];
    target[dst] = target[src];
    bref[dst] = bref[src];
    itc[dst] = itc[src];
    map[dst] = map[src];
    stag[dst] = stag[src];
  };

  refill();
  while (na > 0 || next < k) {
    // Iteration boundary: drop columns whose budget is exhausted (exactly
    // where solve()'s loop falls through) and top the wave back up.
    for (int j = 0; j < na;) {
      if (itc[j] >= cfg_.max_iters) {
        move_slot(j, --na);
      } else {
        ++j;
      }
    }
    refill();
    if (na == 0) break;

    a_->apply_many(P.data(), nld, Q.data(), nld, na);
    kx_.dot_cols(P.data(), nld, Q.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int it = ++itc[j];
      const S pq = red[j];
      if (!(std::abs(static_cast<double>(pq)) > 0.0) ||
          !std::isfinite(static_cast<double>(pq))) {
        res[map[j]].iterations = it;  // breakdown: retire where solve() returns
        res[map[j]].fail(std::isfinite(static_cast<double>(pq))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "pivot");
        move_slot(j, --na);
        continue;
      }
      alpha[j] = rz[j] / pq;
      nalpha[j] = -alpha[j];
      ++j;
    }
    if (na == 0) continue;

    // x_{map[j]} += α_j p_j (scattered through the index map into caller
    // columns); r_j −= α_j q_j.
    kx_.axpy_cols(alpha.data(), P.data(), nld, x, ldx, na, n_, map.data());
    kx_.axpy_cols(nalpha.data(), Q.data(), nld, R.data(), nld, na, n_);
    kx_.nrm2_cols(R.data(), nld, na, n_, red.data());
    // Belt-and-braces panel guard (benched; see Config::guard_panels).  The
    // rnorm check below already retires every poisoned column — a NaN/Inf
    // anywhere in r makes its norm non-finite — so the scan only sharpens
    // the failure site attribution; its cost is what the bench gate pins.
    const int badc = cfg_.guard_panels ? kx_.first_nonfinite_col(R.data(), nld, na, n_) : -1;
    for (int j = 0; j < na;) {
      const int c = map[j];
      const double rnorm = static_cast<double>(red[j]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
      res[c].iterations = itc[j];
      if (!std::isfinite(rnorm)) {
        res[c].fail(SolveStatus::kNonFinite, j == badc ? "panel" : "rnorm");
        move_slot(j, --na);
        continue;
      }
      if (rnorm <= target[j]) {
        res[c].mark_converged();
        move_slot(j, --na);
        continue;
      }
      if (stag[j].stalled(res[c], rnorm, cfg_.stagnate_window, "rnorm")) {
        move_slot(j, --na);
        continue;
      }
      ++j;
    }
    if (na == 0) continue;

    // The trailing preconditioner apply and direction update run even on a
    // column's final iteration, exactly as solve()'s loop body does.
    m_->apply_many(R.data(), nld, Z.data(), nld, na);
    kx_.dot_cols(R.data(), nld, Z.data(), nld, na, n_, red.data());
    for (int j = 0; j < na; ++j) {
      beta[j] = red[j] / rz[j];
      rz[j] = red[j];
    }
    // p_j = z_j + β_j p_j.
    kx_.axpby_cols(ones.data(), Z.data(), nld, beta.data(), P.data(), nld, na, n_);
  }
  return res;
}

template class CgSolver<double>;
template class CgSolver<float>;

}  // namespace nk
