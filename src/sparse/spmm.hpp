// Sparse matrix × multiple-vector products (SpMM) over CSR and SELL-C —
// the kernel behind batched multi-RHS solving.
//
// A batch of k right-hand sides advances in lockstep through a solver, so
// every operator application becomes Y_c = A·X_c for c in [0, k).  Running
// k separate SpMVs streams the matrix from memory k times; these kernels
// stream it ONCE: the row (CSR) or slice (SELL) being processed stays hot
// in L1/L2 while the k column dots read it, so the dominant traffic — the
// matrix values and indices — is shared across the whole batch.  For a
// memory-bound solve this is the single biggest lever batching has.
//
// Numerical contract: column c of spmm() performs exactly the
// accumulation sequence spmv() performs on that column
// (detail::row_dot's per-row order for CSR — including its four-way fp16
// partial-sum grouping — and the SIMD slice sweep for SELL), so batched
// and sequential solves produce bit-identical iterates per right-hand
// side on the fp64/fp32 CSR paths, on fp16 × fp16, and on every SELL
// path.  The one exception is fp16 values with wider vectors over CSR:
// on an AVX-512 build spmv's fp16 × fp32 rows run 16 gather lanes
// (row_dot_f16_f32_x16) while spmm keeps the four-way grouping, and
// elsewhere the compiler's FMA-contraction freedom (-ffp-contract) may
// fuse the same four-way sequence differently in the two loop
// structures.  Agreement there is at fp32 rounding level (the tests'
// 1e-5 tier), not bitwise — which is why the fp16 inner levels are
// tolerance-checked rather than exact in the batched-solve tests.  What
// changes is the SCHEDULE: the CSR kernel walks the row's nonzeros once
// and updates all k per-column accumulators per nonzero.
// That reads A once per batch instead of k times AND — the bigger effect
// on a single core — replaces k serial FMA dependency chains with k
// independent accumulators advancing in lockstep, so the row dot becomes
// throughput-bound instead of latency-bound.
//
// Layout: column c of X starts at x + c·ldx (each column contiguous,
// length n); same for Y/B.  k = 0 is a no-op.  A width-1 CSR product IS
// spmv(): the call forwards to it, so a batched solver at width 1 (every
// single-RHS CG/BiCGStab solve) runs the scalar kernel at its speed and
// to its bits — the AVX-512 fp16 × fp32 row kernel included.
#pragma once

#include <span>

#include "base/blas1.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmv.hpp"

namespace nk {

/// Largest batch the CSR kernels hold in per-row stack accumulators; wider
/// batches are processed in column groups of this size (still exact).
inline constexpr int kSpmmMaxCols = 16;

namespace spmm_detail {

/// One CSR row × up to kSpmmMaxCols columns: per column the accumulation
/// sequence of row_dot's portable paths on that column (plain `s += v·x`
/// on the general path, the four-way partial-sum grouping on the
/// fp16-storage path), interleaved across columns for ILP.  KC > 0 pins the column count at
/// compile time (k == KC) so the per-nonzero column loops fully unroll —
/// the difference between a modest and a large win on short stencil rows.
/// `out(c, s)` stores column c's row value.
template <class MT, class XT, class Acc, int KC, class Out>
inline void row_dots(const MT* __restrict v, const index_t* __restrict ci,
                     const XT* __restrict x, std::ptrdiff_t ldx, int k_dyn, index_t b,
                     index_t e, Out&& out) {
  const int k = KC > 0 ? KC : k_dyn;
  if constexpr (sizeof(MT) == 2) {
    // fp16 matrix path: row_dot's four-way partial sums — lane (t − b)
    // mod 4 over the 4-aligned prefix, remainder into lane 0 — with the
    // converted value shared across all k columns.
    Acc acc[4][kSpmmMaxCols] = {};
    Acc vf[16];
    index_t t = b;
    for (; t + 16 <= e; t += 16) {
      if constexpr (std::is_same_v<Acc, float>) {
        half_to_float_n(v + t, vf, 16);  // conversion-exact (see row_dot)
      } else {
        for (int j = 0; j < 16; ++j) vf[j] = static_cast<Acc>(v[t + j]);
      }
      for (int j = 0; j < 16; ++j) {
        const Acc av = vf[j];
        const XT* __restrict xc = x + ci[t + j];
        Acc* __restrict lane = acc[j % 4];
        for (int c = 0; c < k; ++c) lane[c] += av * static_cast<Acc>(xc[c * ldx]);
      }
    }
    for (; t + 4 <= e; t += 4) {
      for (int j = 0; j < 4; ++j) {
        const Acc av = static_cast<Acc>(v[t + j]);
        const XT* __restrict xc = x + ci[t + j];
        Acc* __restrict lane = acc[j];
        for (int c = 0; c < k; ++c) lane[c] += av * static_cast<Acc>(xc[c * ldx]);
      }
    }
    for (; t < e; ++t) {
      const Acc av = static_cast<Acc>(v[t]);
      const XT* __restrict xc = x + ci[t];
      for (int c = 0; c < k; ++c) acc[0][c] += av * static_cast<Acc>(xc[c * ldx]);
    }
    for (int c = 0; c < k; ++c)
      out(c, (acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]));
  } else {
    Acc acc[kSpmmMaxCols] = {};
    for (index_t t = b; t < e; ++t) {
      const Acc av = static_cast<Acc>(v[t]);
      const XT* __restrict xc = x + ci[t];
      for (int c = 0; c < k; ++c) acc[c] += av * static_cast<Acc>(xc[c * ldx]);
    }
    for (int c = 0; c < k; ++c) out(c, acc[c]);
  }
}

/// Dispatch a column group to the compile-time-specialized row kernel.
/// Every width greedy_group produces is pinned: the common 16/8/4 tiers
/// AND the 1/2/3 tails — previously a <4 tail (any odd batch width, e.g. a
/// compacted survivor count of 5, 7, 9 or 17) fell into the dynamic
/// `<...,0>` kernel and silently lost the unrolled path.  The dynamic case
/// remains as a safety net only.
template <class Body>
inline void dispatch_cols(int kc, Body&& body) {
  switch (kc) {
    case 1: body.template operator()<1>(); break;
    case 2: body.template operator()<2>(); break;
    case 3: body.template operator()<3>(); break;
    case 4: body.template operator()<4>(); break;
    case 8: body.template operator()<8>(); break;
    case kSpmmMaxCols: body.template operator()<kSpmmMaxCols>(); break;
    default: body.template operator()<0>(); break;
  }
}

/// Greedy group decomposition (blas::greedy_group): keeps a compacted
/// active set (say 11 survivors of 16) in the fully-unrolled pinned
/// kernels instead of falling into the unpinned path as one ragged group.
inline int next_group(int remaining) { return blas::greedy_group(remaining, kSpmmMaxCols); }

}  // namespace spmm_detail

/// Y_c = A X_c over CSR for c in [0, k).
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(CsrView<MT> a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  const std::ptrdiff_t n = a.nrows;
  if (k == 1) {
    spmv<MT, XT, YT, Acc>(a, std::span<const XT>(x, static_cast<std::size_t>(a.ncols)),
                          std::span<YT>(y, static_cast<std::size_t>(n)));
    return;
  }
  const std::ptrdiff_t work = static_cast<std::ptrdiff_t>(a.nnz()) * k;
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  for (int c0 = 0; c0 < k;) {
    const int kc = spmm_detail::next_group(k - c0);
    const XT* xg = x + static_cast<std::ptrdiff_t>(c0) * ldx;
    YT* yg = y + static_cast<std::ptrdiff_t>(c0) * ldy;
    spmm_detail::dispatch_cols(kc, [&]<int KC>() {
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
      for (std::ptrdiff_t i = 0; i < n; ++i)
        spmm_detail::row_dots<MT, XT, Acc, KC>(
            v, ci, xg, ldx, kc, rp[i], rp[i + 1], [&](int c, Acc s) {
              yg[static_cast<std::ptrdiff_t>(c) * ldy + i] = static_cast<YT>(s);
            });
    });
    c0 += kc;
  }
}

/// Y_c = A X_c over SELL-C: per slice, the SIMD column-major sweep runs
/// once per batch column while the slice's values/indices stay in cache.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(SellView<MT> a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  const std::ptrdiff_t work =
      static_cast<std::ptrdiff_t>(a.padded_nnz()) * std::max(k, 1);
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    const index_t base = a.slice_ptr[sl];
    const index_t w = a.slice_width[sl];
    for (int c = 0; c < k; ++c) {
      const XT* xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
      YT* yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      if (C <= kSellSimdMaxChunk) {
        sell_detail::slice_sweep_simd<MT, XT, Acc>(
            a.vals.data(), a.cols.data(), xc, base, w, C, r0, r1,
            [&](index_t i, Acc s) { yc[i] = static_cast<YT>(s); });
      } else {
        for (index_t i = r0; i < r1; ++i)
          yc[i] = static_cast<YT>(sell_detail::lane_dot<MT, XT, Acc>(
              a.vals.data(), a.cols.data(), xc, base, i - r0, w, C));
      }
    }
  }
}

// The owning matrices read through their views.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(const CsrMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  spmm<MT, XT, YT, Acc>(CsrView<MT>(a), x, ldx, y, ldy, k);
}
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(const SellMatrix<MT>& a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  spmm<MT, XT, YT, Acc>(SellView<MT>(a), x, ldx, y, ldy, k);
}

}  // namespace nk
