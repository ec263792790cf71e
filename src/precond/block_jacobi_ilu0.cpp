#include "precond/block_jacobi_ilu0.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "base/env.hpp"

namespace nk {

std::vector<index_t> make_block_starts(index_t n, int nblocks) {
  if (nblocks <= 0) nblocks = num_threads();
  nblocks = std::min<int>(nblocks, std::max<index_t>(n, 1));
  std::vector<index_t> starts(nblocks + 1);
  for (int b = 0; b <= nblocks; ++b)
    starts[b] = static_cast<index_t>(static_cast<std::int64_t>(n) * b / nblocks);
  return starts;
}

std::shared_ptr<IluPattern> block_restrict(const CsrMatrix<double>& a, int nblocks,
                                           std::vector<double>& vals) {
  auto pat = std::make_shared<IluPattern>();
  IluPattern& g = *pat;
  g.n = a.nrows;
  g.block_start = make_block_starts(a.nrows, nblocks);
  const index_t nb = g.nblocks();

  // Pass 1: count per-row entries restricted to the owning block, inserting
  // the diagonal where the pattern lacks it.
  g.row_ptr.assign(a.nrows + 1, 0);
  std::vector<index_t> owner(a.nrows);
  for (index_t b = 0; b < nb; ++b)
    for (index_t i = g.block_start[b]; i < g.block_start[b + 1]; ++i) owner[i] = b;

#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.nrows); ++i) {
    const index_t b = owner[i];
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    index_t cnt = 0;
    bool saw_diag = false;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t c = a.col_idx[k];
      if (c >= b0 && c < b1) {
        ++cnt;
        if (c == static_cast<index_t>(i)) saw_diag = true;
      }
    }
    if (!saw_diag) ++cnt;
    g.row_ptr[i + 1] = cnt;
  }
  for (index_t i = 0; i < a.nrows; ++i) g.row_ptr[i + 1] += g.row_ptr[i];
  g.col_idx.resize(g.row_ptr[a.nrows]);
  vals.resize(g.row_ptr[a.nrows]);
  g.diag_pos.resize(a.nrows);

  // Pass 2: copy entries (sorted).
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.nrows); ++i) {
    const index_t b = owner[i];
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    index_t p = g.row_ptr[i];
    bool placed_diag = false;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t c = a.col_idx[k];
      if (c < b0 || c >= b1) continue;
      if (!placed_diag && c > static_cast<index_t>(i)) {
        // insert missing diagonal before the first upper entry
        g.col_idx[p] = static_cast<index_t>(i);
        vals[p] = 0.0;
        g.diag_pos[i] = p++;
        placed_diag = true;
      }
      g.col_idx[p] = c;
      vals[p] = a.vals[k];
      if (c == static_cast<index_t>(i)) {
        g.diag_pos[i] = p;
        placed_diag = true;
      }
      ++p;
    }
    if (!placed_diag) {
      g.col_idx[p] = static_cast<index_t>(i);
      vals[p] = 0.0;
      g.diag_pos[i] = p;
    }
  }
  return pat;
}

BlockJacobiIlu0::BlockJacobiIlu0(const CsrMatrix<double>& a, Config cfg)
    : FactoredPrecond(a.nrows) {
  if (a.nrows != a.ncols) throw std::invalid_argument("BlockJacobiIlu0: matrix must be square");
  auto f = std::make_shared<IluFactors<double>>();
  f->pat = block_restrict(a, cfg.nblocks, f->vals);
  const IluPattern& g = *f->pat;
  const index_t nb = g.nblocks();
  // α boost of the diagonal (for finite α an inserted zero stays zero).
  for (index_t i = 0; i < a.nrows; ++i) f->vals[g.diag_pos[i]] *= cfg.alpha;

  // Pass 3: IKJ ILU(0) per block.
  int breakdowns = 0;
#pragma omp parallel for schedule(static) reduction(+ : breakdowns)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    const index_t width = b1 - b0;
    std::vector<index_t> pos(width, -1);  // col -> position in current row i
    for (index_t i = b0; i < b1; ++i) {
      for (index_t p = g.row_ptr[i]; p < g.row_ptr[i + 1]; ++p)
        pos[g.col_idx[p] - b0] = p;
      for (index_t p = g.row_ptr[i]; p < g.diag_pos[i]; ++p) {
        const index_t k = g.col_idx[p];
        const double ukk = f->vals[g.diag_pos[k]];
        const double lik = f->vals[p] / ukk;
        f->vals[p] = lik;
        for (index_t q = g.diag_pos[k] + 1; q < g.row_ptr[k + 1]; ++q) {
          const index_t j = g.col_idx[q];
          const index_t pj = pos[j - b0];
          if (pj >= 0) f->vals[pj] -= lik * f->vals[q];
        }
      }
      double& uii = f->vals[g.diag_pos[i]];
      if (std::abs(uii) < 1e-30 || !std::isfinite(uii)) {
        uii = 1.0;  // zero-pivot replacement (counted)
        ++breakdowns;
      }
      for (index_t p = g.row_ptr[i]; p < g.row_ptr[i + 1]; ++p)
        pos[g.col_idx[p] - b0] = -1;
    }
  }
  breakdowns_ = breakdowns;
  f->inv_diag.resize(a.nrows);
  for (index_t i = 0; i < a.nrows; ++i) f->inv_diag[i] = 1.0 / f->vals[g.diag_pos[i]];
  set_factors(std::move(f));
}

}  // namespace nk
