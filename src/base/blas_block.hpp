// Blocked multi-vector BLAS kernels — the fused Arnoldi hot path.
//
// Classical Gram-Schmidt against k basis vectors, written with blas1
// primitives, is k independent dot() calls followed by k independent
// axpy() calls: 2k parallel-region launches and 2k full passes over w.
// F3R nests three FGMRES levels, so that sequence executes millions of
// times per solve.  The kernels here do the same math in one pass:
//
//   dot_many   out[j] = V_jᵀ·w  for all j   — one sweep over V and w
//   axpy_many  w (±)= Σ_j h[j]·V_j          — one read-modify-write of w
//   scal_copy  dst = α·src                  — fuses normalize-then-copy
//
// V is a contiguous row-major block (vector j starts at v + j·ld), which
// is how FgmresSolver now stores its Arnoldi and preconditioned bases.
//
// Numerical contract: per output element these kernels perform bit-for-bit
// the same operation sequence as the blas1 loops they replace (for
// dot_many: blas1's detail::partial_sums order, so at one thread and at
// any thread count where both run parallel; for axpy_many/scal_copy at
// any thread count, their chains being element-local).  In particular
// axpy_many rounds the running value to the vector precision after every
// term — exactly what k chained axpy() stores do — so fusing changes the
// schedule, never the math.
// Reductions over fp16 inputs accumulate in fp32 with the same four-way
// unrolling as blas::dot (see the false-dependency note there).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "base/blas1.hpp"
#include "base/half.hpp"

namespace nk::blas {

namespace block_detail {

/// Cache tile (elements) for the i-dimension: w's tile stays in L1 while
/// the k basis rows stream past it.  Multiple of 4 so the fp16 four-way
/// accumulator grouping stays aligned with blas::dot's across tiles.
inline constexpr std::ptrdiff_t kTile = 1024;

/// Stack-scratch capacity in basis vectors: covers every FGMRES
/// configuration in the repo (outermost m = 100 → k ≤ 101) without heap
/// allocation; larger k falls back to a heap buffer.
inline constexpr int kMaxStackK = 128;

/// Register-blocked group core of dot_many's fp64/fp32 path: KG columns'
/// accumulator chains advance together through one sweep over [i0, i1).
/// Per column the i-order (and therefore the rounding sequence) is exactly
/// the single-chain loop's — grouping columns adds INSTRUCTION-level
/// parallelism without touching any column's math.  KG is a compile-time
/// constant so the inner loop fully unrolls into KG independent FMA chains
/// held in registers; the serial per-column chain this replaces was
/// latency-bound at one element per FMA latency (~7 GB/s where a single
/// dot streams 13 GB/s — the committed BENCH_kernels.json gap).
template <class TV, class TW, class W, int KG>
inline void dot_many_group(const TV* __restrict v, std::ptrdiff_t ld,
                           const TW* __restrict w, std::ptrdiff_t i0, std::ptrdiff_t i1,
                           W* __restrict acc) {
  W a[KG];
  for (int j = 0; j < KG; ++j) a[j] = acc[j];
  for (std::ptrdiff_t i = i0; i < i1; ++i) {
    const W wi = static_cast<W>(w[i]);
    for (int j = 0; j < KG; ++j) a[j] += static_cast<W>(v[j * ld + i]) * wi;
  }
  for (int j = 0; j < KG; ++j) acc[j] = a[j];
}

/// Sequential dot_many over the index range [i0, i1): accumulates into
/// acc[j] (general path) or acc4[4j..4j+3] (half path), preserving
/// blas::dot's per-vector operation order.  `i1 - i0` must be a multiple
/// of 4 on the half path (callers peel the remainder).
template <class TV, class TW, class W>
inline void dot_many_range(const TV* __restrict v, std::ptrdiff_t ld, int k,
                           const TW* __restrict w, std::ptrdiff_t i0, std::ptrdiff_t i1,
                           W* __restrict acc) {
  for (std::ptrdiff_t t0 = i0; t0 < i1; t0 += kTile) {
    const std::ptrdiff_t t1 = std::min(t0 + kTile, i1);
    if constexpr (sizeof(TV) == 2 || sizeof(TW) == 2) {
      // Convert fp16 operands chunk-wise up front (exact, so the four-way
      // partial sums below are bit-identical to blas::dot's) — w's chunk
      // once per tile, each row's chunk once.
      W wbuf[kTile], vbufc[kTile];
      const std::ptrdiff_t len = t1 - t0;
      const W* __restrict wc = to_acc_chunk(w + t0, wbuf, len);
      for (int j = 0; j < k; ++j) {
        const TV* __restrict vj = v + static_cast<std::ptrdiff_t>(j) * ld;
        const W* __restrict vc = to_acc_chunk(vj + t0, vbufc, len);
        W s0 = acc[4 * j], s1 = acc[4 * j + 1], s2 = acc[4 * j + 2], s3 = acc[4 * j + 3];
        for (std::ptrdiff_t i = 0; i < len; i += 4) {
          s0 += vc[i] * wc[i];
          s1 += vc[i + 1] * wc[i + 1];
          s2 += vc[i + 2] * wc[i + 2];
          s3 += vc[i + 3] * wc[i + 3];
        }
        acc[4 * j] = s0;
        acc[4 * j + 1] = s1;
        acc[4 * j + 2] = s2;
        acc[4 * j + 3] = s3;
      }
    } else {
      // Greedy 8/4/2/1 register-blocked groups.  Grouping is numerically
      // free (each column keeps its own chain in its own i-order), so every
      // width runs fully unrolled — no dynamic-width tail kernel.
      int j0 = 0;
      for (; j0 + 8 <= k; j0 += 8)
        dot_many_group<TV, TW, W, 8>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
      if (k - j0 >= 4) {
        dot_many_group<TV, TW, W, 4>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
        j0 += 4;
      }
      if (k - j0 >= 2) {
        dot_many_group<TV, TW, W, 2>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
        j0 += 2;
      }
      if (k - j0 == 1)
        dot_many_group<TV, TW, W, 1>(v + static_cast<std::ptrdiff_t>(j0) * ld, ld, w,
                                     t0, t1, acc + j0);
    }
  }
}

}  // namespace block_detail

/// out[j] = Σ_i V_j[i]·w[i] for j in [0, k).  V_j = v + j·ld; out has k
/// entries of the accumulator type (fp32 when either input is fp16).
/// One sweep over the k·n block instead of k launches re-reading w.
template <class TV, class TW>
void dot_many(const TV* v, std::ptrdiff_t ld, int k, std::span<const TW> w,
              acc_t<promote_t<TV, TW>>* out) {
  using W = acc_t<promote_t<TV, TW>>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  if (k <= 0) return;
  constexpr bool half_path = (sizeof(TV) == 2 || sizeof(TW) == 2);
  constexpr int lanes = half_path ? 4 : 1;
  const std::ptrdiff_t n4 = half_path ? n - (n % 4) : n;

  // Stack accumulators for the common case — the inner F3R levels call this
  // millions of times on short vectors, where a malloc would rival the
  // fork-join cost the fusion removes.
  W acc_stack[block_detail::kMaxStackK * 4];
  std::vector<W> acc_heap;
  W* acc = acc_stack;
  if (k > block_detail::kMaxStackK) {
    acc_heap.resize(static_cast<std::size_t>(k) * lanes);
    acc = acc_heap.data();
  }
  for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(k) * lanes; ++j) acc[j] = W{0};
  // detail::partial_sums's order: a dot_many column equals blas::dot at
  // one thread, and at every thread count when both run parallel.
  detail::partial_sums(n4, k * lanes,
                       static_cast<std::ptrdiff_t>(k) * n > parallel_threshold() && n4 >= 4,
                       acc, [&](std::ptrdiff_t i0, std::ptrdiff_t i1, W* part) {
                         block_detail::dot_many_range<TV, TW, W>(v, ld, k, w.data(), i0, i1,
                                                                 part);
                       });

  if constexpr (half_path) {
    for (int j = 0; j < k; ++j) {
      const TV* vj = v + static_cast<std::ptrdiff_t>(j) * ld;
      W s0 = acc[4 * j];
      for (std::ptrdiff_t i = n4; i < n; ++i)
        s0 += static_cast<W>(vj[i]) * static_cast<W>(w[i]);
      out[j] = (s0 + acc[4 * j + 1]) + (acc[4 * j + 2] + acc[4 * j + 3]);
    }
  } else {
    for (int j = 0; j < k; ++j) out[j] = acc[j];
  }
}

/// w ±= Σ_j h[j]·V_j in one read-modify-write of w (`subtract` picks the
/// sign; Gram-Schmidt subtracts, the solution update adds).  The running
/// value is rounded to TW after every term, reproducing the k chained
/// axpy() stores bit-for-bit — element-local, so exact at any thread count.
template <class TV, class TW, class S>
void axpy_many(const TV* v, std::ptrdiff_t ld, int k, const S* h, std::span<TW> w,
               bool subtract = false) {
  using W = promote_t<promote_t<TV, TW>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  if (k <= 0) return;
  W a_stack[block_detail::kMaxStackK];
  std::vector<W> a_heap;
  W* a = a_stack;
  if (k > block_detail::kMaxStackK) {
    a_heap.resize(static_cast<std::size_t>(k));
    a = a_heap.data();
  }
  for (int j = 0; j < k; ++j) a[j] = subtract ? -static_cast<W>(h[j]) : static_cast<W>(h[j]);
  const W* __restrict ap = a;
  TW* __restrict wp = w.data();
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * n > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
    const std::ptrdiff_t len = std::min(t0 + block_detail::kTile, n) - t0;
    W buf[block_detail::kTile];
    if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
      half_to_float_n(wp + t0, buf, len);
    } else {
      for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] = static_cast<W>(wp[t0 + i]);
    }
    for (int j = 0; j < k; ++j) {
      const TV* __restrict vj = v + static_cast<std::ptrdiff_t>(j) * ld + t0;
      const W aj = ap[j];
      if constexpr (std::is_same_v<TW, W>) {
#pragma omp simd
        for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] += aj * static_cast<W>(vj[i]);
      } else {
        // TW narrower than the compute type: round after every term, as the
        // chained axpy() stores would.  fp16 conversions go through the
        // vectorized F16C helpers — GCC scalarizes _Float16 conversion
        // loops into serial vcvtsh2ss chains otherwise (see half.hpp).
        W vf[block_detail::kTile];
        const W* __restrict vc = to_acc_chunk(vj, vf, len);
        if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
          for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] += aj * vc[i];
          round_half_n(buf, len);
        } else {
          for (std::ptrdiff_t i = 0; i < len; ++i)
            buf[i] = static_cast<W>(static_cast<TW>(buf[i] + aj * vc[i]));
        }
      }
    }
    if constexpr (std::is_same_v<TW, half> && std::is_same_v<W, float>) {
      // buf already carries half-rounded values; this conversion is exact.
      float_to_half_n(buf, wp + t0, len);
    } else {
      for (std::ptrdiff_t i = 0; i < len; ++i) wp[t0 + i] = static_cast<TW>(buf[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-RHS column kernels — the batched-solve hot path.
//
// A batched solver advances k independent right-hand sides in lockstep
// through k-column panels, column c contiguous at x + c·ld.  The kernels
// below fuse the k per-column BLAS-1 calls of one solver step into a
// single parallel region, and per column they are bit-identical to the
// blas1 call they replace at every thread count: the element-local
// updates (axpy_cols / axpby_cols) trivially, and the reductions
// (dot_cols / nrm2_cols) because each column is summed in blas::dot's
// order — detail::partial_sums over the same chunks, forking under the
// same `n > parallel_threshold()` predicate.  A width-1 update panel
// calls the blas1 kernel itself, at its speed.
// ---------------------------------------------------------------------------

/// Column-group width of the reduction kernels' stack accumulators; wider
/// batches are processed in groups (per-column results unaffected).
inline constexpr int kColsMax = 16;

namespace block_detail {

/// Interleaved multi-column dot over [i0, i1), accumulating into part:
/// part[c] on the general path, the four lanes part[4c..4c+3] on the fp16
/// path.  Per column the i-order — a single chain, or blas::dot's four-way
/// unroll (lane = i mod 4; i0 and i1 are multiples of 4 there) — is
/// exactly blas::dot's chunk body; the column loop runs innermost so the k
/// independent chains advance together and the reduction becomes
/// throughput-bound instead of latency-bound.
template <class TX, class TY, class W, int KC>
inline void dot_cols_range(const TX* __restrict x, std::ptrdiff_t ldx,
                           const TY* __restrict y, std::ptrdiff_t ldy, int k_dyn,
                           std::ptrdiff_t i0, std::ptrdiff_t i1, W* __restrict part) {
  const int k = KC > 0 ? KC : k_dyn;
  if constexpr (sizeof(TX) == 2 || sizeof(TY) == 2) {
    // fp16 operands: converting inside the arithmetic loop scalarizes into
    // a serial vcvtsh2ss chain under GCC 12 (~1 GB/s), so each column is
    // tile-converted through the vectorized F16C helpers first (value-
    // exact) and accumulated on the converted chunks.
    W xb[kTile], yb[kTile];
    for (int c = 0; c < k; ++c) {
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
      const TY* __restrict yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
      W a0 = part[4 * c], a1 = part[4 * c + 1], a2 = part[4 * c + 2], a3 = part[4 * c + 3];
      for (std::ptrdiff_t t0 = i0; t0 < i1; t0 += kTile) {
        const std::ptrdiff_t len = std::min(t0 + kTile, i1) - t0;
        const W* __restrict xv = to_acc_chunk(xc + t0, xb, len);
        const W* __restrict yv = to_acc_chunk(yc + t0, yb, len);
        for (std::ptrdiff_t i = 0; i < len; i += 4) {
          a0 += xv[i] * yv[i];
          a1 += xv[i + 1] * yv[i + 1];
          a2 += xv[i + 2] * yv[i + 2];
          a3 += xv[i + 3] * yv[i + 3];
        }
      }
      part[4 * c] = a0, part[4 * c + 1] = a1, part[4 * c + 2] = a2, part[4 * c + 3] = a3;
    }
  } else {
    W acc[kColsMax];
    for (int c = 0; c < k; ++c) acc[c] = part[c];
    for (std::ptrdiff_t i = i0; i < i1; ++i)
      for (int c = 0; c < k; ++c)
        acc[c] += static_cast<W>(x[c * ldx + i]) * static_cast<W>(y[c * ldy + i]);
    for (int c = 0; c < k; ++c) part[c] = acc[c];
  }
}

}  // namespace block_detail

/// out[c] = Σ_i x_c[i]·y_c[i] for c in [0, k).  Per column bit-identical
/// to blas::dot (including the four-way fp16 unroll and its tail) at every
/// thread count: only the schedule across columns differs.  Greedy 16/8/4
/// groups with the sub-4 tails also pinned (1/2/3), so every width —
/// including the odd post-compaction widths a staggered batch produces —
/// runs fully unrolled; group decomposition never changes per-column
/// results.
template <class TX, class TY>
void dot_cols(const TX* x, std::ptrdiff_t ldx, const TY* y, std::ptrdiff_t ldy, int k,
              std::size_t n, acc_t<promote_t<TX, TY>>* out) {
  using W = acc_t<promote_t<TX, TY>>;
  constexpr bool half_path = sizeof(TX) == 2 || sizeof(TY) == 2;
  constexpr int lanes = half_path ? 4 : 1;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  const std::ptrdiff_t n4 = half_path ? nn - nn % 4 : nn;
  const bool par = nn > parallel_threshold();  // blas::dot's predicate
  for (int c0 = 0; c0 < k;) {
    const int kc = greedy_group(k - c0, kColsMax);
    const TX* xg = x + static_cast<std::ptrdiff_t>(c0) * ldx;
    const TY* yg = y + static_cast<std::ptrdiff_t>(c0) * ldy;
    W acc[kColsMax * lanes] = {};
    auto sweep = [&]<int KC>() {
      detail::partial_sums(n4, kc * lanes, par, acc,
                           [&](std::ptrdiff_t i0, std::ptrdiff_t i1, W* part) {
                             block_detail::dot_cols_range<TX, TY, W, KC>(xg, ldx, yg, ldy,
                                                                         kc, i0, i1, part);
                           });
    };
    switch (kc) {
      case 1: sweep.template operator()<1>(); break;
      case 2: sweep.template operator()<2>(); break;
      case 3: sweep.template operator()<3>(); break;
      case 4: sweep.template operator()<4>(); break;
      case 8: sweep.template operator()<8>(); break;
      case kColsMax: sweep.template operator()<kColsMax>(); break;
      default: sweep.template operator()<0>(); break;
    }
    for (int c = 0; c < kc; ++c) {
      if constexpr (half_path) {
        const TX* xc = xg + static_cast<std::ptrdiff_t>(c) * ldx;
        const TY* yc = yg + static_cast<std::ptrdiff_t>(c) * ldy;
        W s0 = acc[4 * c];
        for (std::ptrdiff_t i = n4; i < nn; ++i)
          s0 += static_cast<W>(xc[i]) * static_cast<W>(yc[i]);
        out[c0 + c] = (s0 + acc[4 * c + 1]) + (acc[4 * c + 2] + acc[4 * c + 3]);
      } else {
        out[c0 + c] = acc[c];
      }
    }
    c0 += kc;
  }
}

/// out[c] = ‖x_c‖₂ for c in [0, k): per column bit-identical to
/// blas::nrm2 — the sum of squares goes through dot_cols (x·x is nrm2's
/// accumulation exactly, lane grouping included), followed by the same
/// double-rounded sqrt store.
template <class T>
void nrm2_cols(const T* x, std::ptrdiff_t ldx, int k, std::size_t n, acc_t<T>* out) {
  using W = acc_t<T>;
  dot_cols(x, ldx, x, ldx, k, n, out);
  for (int c = 0; c < k; ++c) out[c] = static_cast<W>(std::sqrt(static_cast<double>(out[c])));
}

/// y_c += alpha[c]·x_c for every column — k axpys in one parallel region,
/// each element rounded exactly as blas::axpy's store rounds it.  `ymap`
/// (optional) is the compaction layer's slot→original index map: column
/// c of X updates y column ymap[c] instead of c, so a compacted panel can
/// scatter into caller-side storage laid out at original column positions
/// without staging copies.
template <class TX, class TY, class S>
void axpy_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, TY* yp,
               std::ptrdiff_t ldy, int k, std::size_t n, const int* ymap = nullptr) {
  using W = promote_t<promote_t<TX, TY>, S>;
  if (k == 1) {  // a width-1 panel is one blas::axpy, at its speed
    axpy(alpha[0], std::span<const TX>(x, n),
         std::span<TY>(yp + (ymap != nullptr ? ymap[0] : 0) * ldy, n));
    return;
  }
  const std::ptrdiff_t len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * len > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < len; t0 += block_detail::kTile) {
    const std::ptrdiff_t tl = std::min(t0 + block_detail::kTile, len) - t0;
    for (int c = 0; c < k; ++c) {
      const W a = static_cast<W>(alpha[c]);
      const std::ptrdiff_t yc_idx = ymap != nullptr ? ymap[c] : c;
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx + t0;
      TY* __restrict yc = yp + yc_idx * ldy + t0;
      if constexpr ((std::is_same_v<TX, half> || std::is_same_v<TY, half>) &&
                    std::is_same_v<W, float>) {
        float xb[block_detail::kTile], yb[block_detail::kTile], ob[block_detail::kTile];
        const float* xv = to_acc_chunk(xc, xb, tl);
        const float* yv = to_acc_chunk(yc, yb, tl);
        for (std::ptrdiff_t i = 0; i < tl; ++i) ob[i] = yv[i] + a * xv[i];
        if constexpr (std::is_same_v<TY, half>) {
          float_to_half_n(ob, yc, tl);
        } else {
          for (std::ptrdiff_t i = 0; i < tl; ++i) yc[i] = static_cast<TY>(ob[i]);
        }
      } else {
        for (std::ptrdiff_t i = 0; i < tl; ++i)
          yc[i] = static_cast<TY>(static_cast<W>(yc[i]) + a * static_cast<W>(xc[i]));
      }
    }
  }
}

/// y_c = alpha[c]·x_c + beta[c]·y_c for every column (the CG / BiCGStab
/// direction update, batched).  Element-local like blas::axpby.
template <class TX, class TY, class S>
void axpby_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, const S* beta, TY* yp,
                std::ptrdiff_t ldy, int k, std::size_t n) {
  using W = promote_t<promote_t<TX, TY>, S>;
  if (k == 1) {
    axpby(alpha[0], std::span<const TX>(x, n), beta[0], std::span<TY>(yp, n));
    return;
  }
  const std::ptrdiff_t len = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(k) * len > parallel_threshold())
  for (std::ptrdiff_t t0 = 0; t0 < len; t0 += block_detail::kTile) {
    const std::ptrdiff_t tl = std::min(t0 + block_detail::kTile, len) - t0;
    for (int c = 0; c < k; ++c) {
      const W a = static_cast<W>(alpha[c]), b = static_cast<W>(beta[c]);
      const TX* __restrict xc = x + static_cast<std::ptrdiff_t>(c) * ldx + t0;
      TY* __restrict yc = yp + static_cast<std::ptrdiff_t>(c) * ldy + t0;
      for (std::ptrdiff_t i = 0; i < tl; ++i)
        yc[i] = static_cast<TY>(a * static_cast<W>(xc[i]) + b * static_cast<W>(yc[i]));
    }
  }
}

/// y = α·x — fuses FGMRES's normalize-then-copy (scal + copy: two passes,
/// one of them read-modify-write) into a single streaming read and write.
/// Rounds α·x[i] to TY exactly as scal()'s store does.
template <class TX, class TY, class S>
void scal_copy(S alpha, std::span<const TX> x, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  const TX* __restrict xp = x.data();
  TY* __restrict yp = y.data();
  if constexpr ((std::is_same_v<TX, half> || std::is_same_v<TY, half>) &&
                std::is_same_v<W, float>) {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
      const std::ptrdiff_t len = std::min(t0 + block_detail::kTile, n) - t0;
      float xb[block_detail::kTile], yb[block_detail::kTile];
      const float* xc = to_acc_chunk(xp + t0, xb, len);
      for (std::ptrdiff_t i = 0; i < len; ++i) yb[i] = a * xc[i];
      if constexpr (std::is_same_v<TY, half>) {
        float_to_half_n(yb, yp + t0, len);
      } else {
        for (std::ptrdiff_t i = 0; i < len; ++i) yp[t0 + i] = static_cast<TY>(yb[i]);
      }
    }
  } else {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i)
      yp[i] = static_cast<TY>(a * static_cast<W>(xp[i]));
  }
}

// ---------------------------------------------------------------------------
// Non-finite guards — the resilience layer's cheap detection primitives.
//
// A NaN/Inf anywhere in a Krylov vector poisons every later iterate, so
// the solvers check the residual NORM every iteration — free, the norm is
// already computed and a NaN input makes it NaN.  Inputs from outside
// (Session's right-hand side) are scanned once with has_nonfinite below: a
// branch-light single pass (x − x == 0 is false exactly for NaN and ±Inf,
// and vectorizes; fp16 tests the exponent bits directly) that only READS.
// ---------------------------------------------------------------------------

namespace block_detail {

inline bool finite_one(double v) { return v - v == 0.0; }
inline bool finite_one(float v) { return v - v == 0.0f; }
inline bool finite_one(half v) {
  // binary16: exponent all-ones ⇔ Inf/NaN.  Bit test avoids promoting
  // through arithmetic that could itself trap on signaling payloads.
  std::uint16_t bits;
  static_assert(sizeof(half) == sizeof(bits));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  return (bits & 0x7C00u) != 0x7C00u;
}

}  // namespace block_detail

/// True iff any element of x is NaN or ±Inf.  One streaming pass; the
/// per-tile early-out keeps the poisoned-input case cheap without putting a
/// branch in the inner loop.
template <class T>
[[nodiscard]] bool has_nonfinite(std::span<const T> x) {
  const T* __restrict p = x.data();
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t t0 = 0; t0 < n; t0 += block_detail::kTile) {
    const std::ptrdiff_t t1 = std::min(t0 + block_detail::kTile, n);
    int bad = 0;
    for (std::ptrdiff_t i = t0; i < t1; ++i) bad |= !block_detail::finite_one(p[i]);
    if (bad != 0) return true;
  }
  return false;
}

}  // namespace nk::blas
