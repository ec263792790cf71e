#include "precond/block_jacobi_ic0.hpp"

#include <cmath>
#include <stdexcept>

#include "precond/block_jacobi_ilu0.hpp"  // make_block_starts

namespace nk {

BlockJacobiIc0::BlockJacobiIc0(const CsrMatrix<double>& a, Config cfg)
    : FactoredPrecond(a.nrows) {
  if (a.nrows != a.ncols) throw std::invalid_argument("BlockJacobiIc0: matrix must be square");
  auto pat = std::make_shared<IcPattern>();
  IcPattern& g = *pat;
  auto f = std::make_shared<IcFactors<double>>();
  g.n = a.nrows;
  g.block_start = make_block_starts(a.nrows, cfg.nblocks);
  const index_t nb = g.nblocks();
  std::vector<index_t> owner(a.nrows);
  for (index_t b = 0; b < nb; ++b)
    for (index_t i = g.block_start[b]; i < g.block_start[b + 1]; ++i) owner[i] = b;

  // Pass 1: count lower-triangular entries per row within the block,
  // forcing a diagonal entry.
  g.l_row_ptr.assign(a.nrows + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.nrows); ++i) {
    const index_t b0 = g.block_start[owner[i]];
    index_t cnt = 1;  // diagonal always present
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t c = a.col_idx[k];
      if (c >= b0 && c < static_cast<index_t>(i)) ++cnt;
    }
    g.l_row_ptr[i + 1] = cnt;
  }
  for (index_t i = 0; i < a.nrows; ++i) g.l_row_ptr[i + 1] += g.l_row_ptr[i];
  g.l_col.resize(g.l_row_ptr[a.nrows]);
  f->l_val.resize(g.l_row_ptr[a.nrows]);

  // Pass 2: copy strict-lower entries (sorted) + boosted diagonal last.
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.nrows); ++i) {
    const index_t b0 = g.block_start[owner[i]];
    index_t p = g.l_row_ptr[i];
    double diag = 0.0;
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t c = a.col_idx[k];
      if (c >= b0 && c < static_cast<index_t>(i)) {
        g.l_col[p] = c;
        f->l_val[p] = a.vals[k];
        ++p;
      } else if (c == static_cast<index_t>(i)) {
        diag = a.vals[k];
      }
    }
    g.l_col[p] = static_cast<index_t>(i);
    f->l_val[p] = diag * cfg.alpha;
  }

  // Pass 3: IC(0) per block.  For each row i and each stored l_ij (j < i):
  //   l_ij = (a_ij - Σ_{k<j} l_ik l_jk) / l_jj,   l_ii = sqrt(a_ii - Σ l_ik²).
  int breakdowns = 0;
#pragma omp parallel for schedule(static) reduction(+ : breakdowns)
  for (std::ptrdiff_t b = 0; b < static_cast<std::ptrdiff_t>(nb); ++b) {
    const index_t b0 = g.block_start[b], b1 = g.block_start[b + 1];
    const index_t width = b1 - b0;
    std::vector<double> w(width, 0.0);       // row i values by local column
    std::vector<index_t> tag(width, -1);     // which row the slot belongs to
    for (index_t i = b0; i < b1; ++i) {
      const index_t begin = g.l_row_ptr[i], end = g.l_row_ptr[i + 1] - 1;
      for (index_t p = begin; p <= end; ++p) {
        w[g.l_col[p] - b0] = f->l_val[p];
        tag[g.l_col[p] - b0] = i;
      }
      for (index_t p = begin; p < end; ++p) {
        const index_t j = g.l_col[p];
        // s = a_ij - Σ_{k<j} l_ik l_jk over row j's stored entries
        double s = w[j - b0];
        const index_t jend = g.l_row_ptr[j + 1] - 1;  // skip row j's diagonal
        for (index_t q = g.l_row_ptr[j]; q < jend; ++q) {
          const index_t k = g.l_col[q];
          if (tag[k - b0] == i) s -= w[k - b0] * f->l_val[q];
        }
        const double ljj = f->l_val[jend];
        const double lij = s / ljj;
        w[j - b0] = lij;
        f->l_val[p] = lij;
      }
      double s = w[static_cast<index_t>(i) - b0];
      for (index_t p = begin; p < end; ++p) {
        const double lik = f->l_val[p];
        s -= lik * lik;
      }
      if (s <= 1e-30 || !std::isfinite(s)) {
        s = 1e-8;  // clamped pivot (counted); keeps the factor SPD
        ++breakdowns;
      }
      f->l_val[end] = std::sqrt(s);
      for (index_t p = begin; p <= end; ++p) tag[g.l_col[p] - b0] = -1;
    }
  }
  breakdowns_ = breakdowns;

  // Build L^T rows (block-local transpose), diagonal first by construction
  // because L's rows are sorted so column i's smallest row is i itself.
  g.lt_row_ptr.assign(a.nrows + 1, 0);
  for (index_t i = 0; i < a.nrows; ++i)
    for (index_t p = g.l_row_ptr[i]; p < g.l_row_ptr[i + 1]; ++p)
      ++g.lt_row_ptr[g.l_col[p] + 1];
  for (index_t i = 0; i < a.nrows; ++i) g.lt_row_ptr[i + 1] += g.lt_row_ptr[i];
  g.lt_col.resize(g.l_col.size());
  f->lt_val.resize(f->l_val.size());
  std::vector<index_t> next(g.lt_row_ptr.begin(), g.lt_row_ptr.end() - 1);
  for (index_t i = 0; i < a.nrows; ++i)
    for (index_t p = g.l_row_ptr[i]; p < g.l_row_ptr[i + 1]; ++p) {
      const index_t c = g.l_col[p];
      const index_t dst = next[c]++;
      g.lt_col[dst] = i;
      f->lt_val[dst] = f->l_val[p];
    }
  f->inv_diag.resize(a.nrows);
  for (index_t i = 0; i < a.nrows; ++i) f->inv_diag[i] = 1.0 / f->l_val[g.l_row_ptr[i + 1] - 1];
  f->pat = std::move(pat);
  set_factors(std::move(f));
}

}  // namespace nk
