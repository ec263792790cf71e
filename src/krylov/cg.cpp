#include "krylov/cg.hpp"

#include <cmath>

#include "base/blas_block.hpp"

namespace nk {

// CG with active-set compaction — the one CG loop.  Survivor columns live
// in the leading `na` columns of the R/Z/P/Q panels; `map[j]` names the
// original column slot j is solving, and retirement swap-removes the slot
// (column data moves verbatim, so per-column arithmetic — and therefore
// every iterate — is the width-1 solve's to the bit).  Every kernel runs
// at width `na`, falling through the compile-time k = 4/8/16 dispatch
// tiers as the set shrinks.  With 0 < wave < k the same loop becomes the ragged-batch
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

  // Initialize original column c into slot j (the width-1 column kernels
  // are the blas1 reductions themselves).  Returns false when the column
  // finishes at iteration 0 and never occupies the slot.
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
    // Iteration boundary: drop columns whose budget is exhausted and top
    // the wave back up.
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
        res[map[j]].iterations = it;  // breakdown (A not SPD w.r.t. p)
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
    for (int j = 0; j < na;) {
      const int c = map[j];
      const double rnorm = static_cast<double>(red[j]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
      res[c].iterations = itc[j];
      if (!std::isfinite(rnorm)) {
        res[c].fail(SolveStatus::kNonFinite, "rnorm");
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
    // column's final iteration.
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

}  // namespace nk
