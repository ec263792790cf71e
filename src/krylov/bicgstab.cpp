#include "krylov/bicgstab.hpp"

#include <cmath>

#include "base/blas_block.hpp"

namespace nk {

// BiCGStab with active-set compaction — the one BiCGStab loop (see
// CgSolver::solve_many for the scheme): survivors occupy the leading `na`
// columns of the eight panels, `map[j]` scatters x updates back to
// original caller columns, and every kernel — the four applications per
// iteration included — runs at the current width.  Retirement swap-removes
// a slot (data moves verbatim, so iterates stay bit-identical to the
// width-1 solve); with 0 < wave < k pending right-hand sides refill freed
// slots at iteration boundaries.
template <class VT>
std::vector<SolveResult> BiCgStabSolver<VT>::solve_many(const VT* b, std::ptrdiff_t ldb,
                                                        VT* x, std::ptrdiff_t ldx, int k,
                                                        int wave) {
  std::vector<SolveResult> res(static_cast<std::size_t>(std::max(k, 0)));
  for (auto& r : res) r.solver = "bicgstab";
  if (k <= 0) return res;
  using S = acc_t<VT>;
  const int W = (wave > 0 && wave < k) ? wave : k;  // dispatch width
  const std::size_t ww = static_cast<std::size_t>(W);
  SolverWorkspace& w = wsref();
  auto R = w.get<VT>(key_ + ".bat.r", ww * n_);
  auto RH = w.get<VT>(key_ + ".bat.rhat", ww * n_);
  auto P = w.get<VT>(key_ + ".bat.p", ww * n_);
  auto V = w.get<VT>(key_ + ".bat.v", ww * n_);
  auto Sv = w.get<VT>(key_ + ".bat.s", ww * n_);
  auto T = w.get<VT>(key_ + ".bat.t", ww * n_);
  auto PH = w.get<VT>(key_ + ".bat.phat", ww * n_);
  auto SH = w.get<VT>(key_ + ".bat.shat", ww * n_);
  auto rho = w.get<S>(key_ + ".bat.rho", ww);
  auto alpha = w.get<S>(key_ + ".bat.alpha", ww);
  auto omega = w.get<S>(key_ + ".bat.omega", ww);
  auto sc0 = w.get<S>(key_ + ".bat.sc0", ww);  // per-slot coefficient scratch
  auto sc1 = w.get<S>(key_ + ".bat.sc1", ww);
  auto red = w.get<S>(key_ + ".bat.red", ww);  // dot/nrm2 results per slot
  auto red2 = w.get<S>(key_ + ".bat.red2", ww);
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
  auto xcol = [&](int c) {
    return std::span<VT>(x + static_cast<std::ptrdiff_t>(c) * ldx, n_);
  };
  auto copy_col = [&](std::span<VT> src, std::span<VT> dst, int j) {
    kx_.copy(ccol(src, j), col(dst, j));
  };

  int na = 0;    // live width
  int next = 0;  // head of the pending column queue

  // Initialize original column c into slot j.  Returns false when the
  // column finishes at iteration 0 and never occupies the slot.
  auto init_slot = [&](int j, int c) -> bool {
    map[j] = c;
    itc[j] = 0;
    kx_.nrm2_cols(b + static_cast<std::ptrdiff_t>(c) * ldb, ldb, 1, n_, &red[j]);
    const double bnorm = static_cast<double>(red[j]);
    if (!std::isfinite(bnorm)) {
      // Poisoned RHS: retire the column before it ever occupies a slot.
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
    copy_col(R, RH, j);
    rho[j] = S{1};
    alpha[j] = S{1};
    omega[j] = S{1};
    kx_.set_zero(col(P, j));
    kx_.set_zero(col(V, j));
    return true;
  };
  auto refill = [&]() {
    while (na < W && next < k)
      if (init_slot(na, next++)) ++na;
  };
  // Swap-remove.  BiCGStab has five mid-pass retirement sites with
  // different panel liveness; moving all eight panels is simpler than
  // tracking which are live where, and retirements are rare.
  auto move_slot = [&](int dst, int src) {
    if (dst == src) return;
    for (auto* blk : {&R, &RH, &P, &V, &Sv, &T, &PH, &SH})
      kx_.copy(ccol(*blk, src), col(*blk, dst));
    rho[dst] = rho[src];
    alpha[dst] = alpha[src];
    omega[dst] = omega[src];
    sc0[dst] = sc0[src];
    sc1[dst] = sc1[src];
    red[dst] = red[src];
    red2[dst] = red2[src];
    target[dst] = target[src];
    bref[dst] = bref[src];
    itc[dst] = itc[src];
    map[dst] = map[src];
    stag[dst] = stag[src];
  };

  refill();
  while (na > 0 || next < k) {
    // Iteration boundary: retire exhausted budgets, top the wave back up.
    for (int j = 0; j < na;) {
      if (itc[j] >= cfg_.max_iters) {
        move_slot(j, --na);
      } else {
        ++j;
      }
    }
    refill();
    if (na == 0) break;

    kx_.dot_cols(RH.data(), nld, R.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int it = ++itc[j];
      res[map[j]].iterations = it;
      const S rho_new = red[j];
      if (!std::isfinite(static_cast<double>(rho_new)) || rho_new == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(rho_new))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "rho");
        move_slot(j, --na);
        continue;
      }
      if (it == 1) {
        // Fresh slot: zero coefficients keep the update below finite on its
        // zeroed P and V; p = r is copied in after it.
        sc0[j] = S{0};
        sc1[j] = S{0};
      } else {
        sc0[j] = -omega[j];
        sc1[j] = (rho_new / rho[j]) * (alpha[j] / omega[j]);  // beta
      }
      rho[j] = rho_new;
      ++j;
    }
    if (na == 0) continue;
    // p_j = r_j + beta_j (p_j − omega_j v_j); then p = r for fresh slots
    // (iteration 1).
    kx_.axpy_cols(sc0.data(), V.data(), nld, P.data(), nld, na, n_);
    for (int j = 0; j < na; ++j) sc0[j] = S{1};
    kx_.axpby_cols(sc0.data(), R.data(), nld, sc1.data(), P.data(), nld, na, n_);
    for (int j = 0; j < na; ++j)
      if (itc[j] == 1) copy_col(R, P, j);

    m_->apply_many(P.data(), nld, PH.data(), nld, na);
    a_->apply_many(PH.data(), nld, V.data(), nld, na);
    kx_.dot_cols(RH.data(), nld, V.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const S rhat_v = red[j];
      if (!std::isfinite(static_cast<double>(rhat_v)) || rhat_v == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(rhat_v))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "rhat_v");
        move_slot(j, --na);
        continue;
      }
      alpha[j] = rho[j] / rhat_v;
      sc0[j] = -alpha[j];
      copy_col(R, Sv, j);  // s_j = r_j − alpha_j v_j …
      ++j;
    }
    if (na == 0) continue;
    kx_.axpy_cols(sc0.data(), V.data(), nld, Sv.data(), nld, na, n_);
    kx_.nrm2_cols(Sv.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const double snorm = static_cast<double>(red[j]);
      if (snorm <= target[j]) {
        const int c = map[j];
        kx_.axpy(alpha[j], ccol(PH, j), xcol(c));
        if (cfg_.record_history) res[c].history.push_back(snorm / bref[j]);
        res[c].mark_converged();
        move_slot(j, --na);
        continue;
      }
      ++j;
    }
    if (na == 0) continue;

    m_->apply_many(Sv.data(), nld, SH.data(), nld, na);
    a_->apply_many(SH.data(), nld, T.data(), nld, na);
    kx_.dot_cols(T.data(), nld, T.data(), nld, na, n_, red.data());
    kx_.dot_cols(T.data(), nld, Sv.data(), nld, na, n_, red2.data());
    for (int j = 0; j < na;) {
      const S tt = red[j];
      if (!std::isfinite(static_cast<double>(tt)) || tt == S{0}) {
        res[map[j]].fail(std::isfinite(static_cast<double>(tt))
                             ? SolveStatus::kBreakdown
                             : SolveStatus::kNonFinite,
                         "tt");
        move_slot(j, --na);
        continue;
      }
      omega[j] = red2[j] / tt;
      sc0[j] = -omega[j];
      ++j;
    }
    if (na == 0) continue;
    // x_{map[j]} += alpha_j phat_j + omega_j shat_j (two chained scattered
    // updates); then r_j = s_j − omega_j t_j.
    kx_.axpy_cols(alpha.data(), PH.data(), nld, x, ldx, na, n_, map.data());
    kx_.axpy_cols(omega.data(), SH.data(), nld, x, ldx, na, n_, map.data());
    for (int j = 0; j < na; ++j) copy_col(Sv, R, j);
    kx_.axpy_cols(sc0.data(), T.data(), nld, R.data(), nld, na, n_);
    kx_.nrm2_cols(R.data(), nld, na, n_, red.data());
    for (int j = 0; j < na;) {
      const int c = map[j];
      const double rnorm = static_cast<double>(red[j]);
      if (cfg_.record_history) res[c].history.push_back(rnorm / bref[j]);
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
      if (omega[j] == S{0}) {  // stagnation breakdown
        res[c].fail(SolveStatus::kBreakdown, "omega");
        move_slot(j, --na);
        continue;
      }
      if (stag[j].stalled(res[c], rnorm, cfg_.stagnate_window, "rnorm")) {
        move_slot(j, --na);
        continue;
      }
      ++j;
    }
  }
  return res;
}

template class BiCgStabSolver<double>;

}  // namespace nk
