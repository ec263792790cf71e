// nk::serial — the reference execution-space backend.
//
// Independently written, single-threaded counterparts of every kernel the
// host backend accelerates: no OpenMP regions, no F16C bulk conversion, no
// AVX-512 FP16 dispatch.  Each function mirrors its host twin's signature
// (backend/kernels.hpp branches between them on the stored nk::Backend)
// and does the textbook thing — one plain loop, one accumulator chain.
//
// Two jobs:
//  * the oracle: the conformance sweep runs the full solver × precond ×
//    format × precision catalog on `;backend=serial` against the committed
//    host baseline, so every clever host kernel is cross-checked by an
//    implementation that shares none of its code;
//  * the seam proof: a complete second backend demonstrates that an
//    omp-target/CUDA tree is a drop-in directory, not another refactor.
//
// Numerical contract vs the host backend:
//  * element-local kernels (convert/copy/scal/axpy/axpby/sub, the *_cols
//    updates, scal_copy, axpy_many) are BIT-IDENTICAL: the per-element
//    operation sequence matches, and half conversions round identically
//    (static_cast through _Float16 and F16C both round to nearest-even);
//  * reductions (dot/nrm2/dot_many/dot_cols, SpMV/SpMM row dots) use one
//    plain accumulator chain in the same accumulator type, where the host
//    uses four-way fp16 unrolling, OpenMP reassociation, or AVX-512 lane
//    sums — agreement is at the same tolerance tiers the fp16 rows of the
//    conformance baseline already carry (and exact on fp64/fp32 paths
//    whenever the host ran single-threaded without unrolling).
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "base/blas1.hpp"
#include "sparse/csr.hpp"
#include "sparse/sell.hpp"

namespace nk::serial {

// ---------------------------------------------------------------------------
// BLAS-1
// ---------------------------------------------------------------------------

/// y[i] = x[i] converted to the destination type (scalar converts only).
template <class Src, class Dst>
void convert(std::span<const Src> x, std::span<Dst> y) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) y[i] = static_cast<Dst>(x[i]);
}

/// y = x.
template <class T>
void copy(std::span<const T> x, std::span<T> y) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) y[i] = x[i];
}

/// x = 0.
template <class T>
void set_zero(std::span<T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) x[i] = static_cast<T>(0);
}

/// x *= alpha (computed in the promoted type, stored per element — the
/// same rounding as the host store).
template <class T, class S>
void scal(S alpha, std::span<T> x) {
  using W = promote_t<T, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  for (std::ptrdiff_t i = 0; i < n; ++i)
    x[i] = static_cast<T>(a * static_cast<W>(x[i]));
}

/// y += alpha * x.
template <class TX, class TY, class S>
void axpy(S alpha, std::span<const TX> x, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  for (std::ptrdiff_t i = 0; i < n; ++i)
    y[i] = static_cast<TY>(static_cast<W>(y[i]) + a * static_cast<W>(x[i]));
}

/// y = alpha * x + beta * y.
template <class TX, class TY, class S>
void axpby(S alpha, std::span<const TX> x, S beta, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha), b = static_cast<W>(beta);
  for (std::ptrdiff_t i = 0; i < n; ++i)
    y[i] = static_cast<TY>(a * static_cast<W>(x[i]) + b * static_cast<W>(y[i]));
}

/// z = x - y.
template <class TX, class TY, class TZ>
void sub(std::span<const TX> x, std::span<const TY> y, std::span<TZ> z) {
  using W = promote_t<TX, TY>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  for (std::ptrdiff_t i = 0; i < n; ++i)
    z[i] = static_cast<TZ>(static_cast<W>(x[i]) - static_cast<W>(y[i]));
}

/// Dot product: one accumulator chain in the usual accumulator type.
template <class TX, class TY>
auto dot(std::span<const TX> x, std::span<const TY> y) {
  using W = acc_t<promote_t<TX, TY>>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  W s{0};
  for (std::ptrdiff_t i = 0; i < n; ++i)
    s += static_cast<W>(x[i]) * static_cast<W>(y[i]);
  return s;
}

/// Euclidean norm: one sum-of-squares chain, same double-rounded sqrt
/// store as the host kernel.
template <class T>
auto nrm2(std::span<const T> x) {
  using W = acc_t<T>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  W s{0};
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const W v = static_cast<W>(x[i]);
    s += v * v;
  }
  return static_cast<W>(std::sqrt(static_cast<double>(s)));
}

/// Infinity norm (double, diagnostics).
template <class T>
double nrm_inf(std::span<const T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  double m = 0.0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const double v = std::fabs(static_cast<double>(x[i]));
    if (v > m) m = v;
  }
  return m;
}

/// Count of non-finite entries.
template <class T>
std::size_t count_nonfinite(std::span<const T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  std::size_t c = 0;
  for (std::ptrdiff_t i = 0; i < n; ++i)
    if (!std::isfinite(static_cast<double>(x[i]))) ++c;
  return c;
}

// ---------------------------------------------------------------------------
// Blocked multi-vector kernels (the host blas_block.hpp surface)
// ---------------------------------------------------------------------------

/// out[j] = V_jᵀ·w — k independent plain dot chains.
template <class TV, class TW>
void dot_many(const TV* v, std::ptrdiff_t ld, int k, std::span<const TW> w,
              acc_t<promote_t<TV, TW>>* out) {
  using W = acc_t<promote_t<TV, TW>>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  for (int j = 0; j < k; ++j) {
    const TV* vj = v + static_cast<std::ptrdiff_t>(j) * ld;
    W s{0};
    for (std::ptrdiff_t i = 0; i < n; ++i)
      s += static_cast<W>(vj[i]) * static_cast<W>(w[i]);
    out[j] = s;
  }
}

/// w (±)= Σ_j h[j]·V_j as k chained axpys: the running value rounds to TW
/// after every term — the host kernel's documented semantic, exactly.
template <class TV, class TW, class S>
void axpy_many(const TV* v, std::ptrdiff_t ld, int k, const S* h, std::span<TW> w,
               bool subtract = false) {
  using W = promote_t<promote_t<TV, TW>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(w.size());
  for (int j = 0; j < k; ++j) {
    const W a = subtract ? -static_cast<W>(h[j]) : static_cast<W>(h[j]);
    const TV* vj = v + static_cast<std::ptrdiff_t>(j) * ld;
    for (std::ptrdiff_t i = 0; i < n; ++i)
      w[i] = static_cast<TW>(static_cast<W>(w[i]) + a * static_cast<W>(vj[i]));
  }
}

/// y = α·x.
template <class TX, class TY, class S>
void scal_copy(S alpha, std::span<const TX> x, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  for (std::ptrdiff_t i = 0; i < n; ++i)
    y[i] = static_cast<TY>(a * static_cast<W>(x[i]));
}

/// out[c] = x_cᵀ·y_c per column — plain chains.
template <class TX, class TY>
void dot_cols(const TX* x, std::ptrdiff_t ldx, const TY* y, std::ptrdiff_t ldy, int k,
              std::size_t n, acc_t<promote_t<TX, TY>>* out) {
  using W = acc_t<promote_t<TX, TY>>;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  for (int c = 0; c < k; ++c) {
    const TX* xc = x + c * ldx;
    const TY* yc = y + c * ldy;
    W s{0};
    for (std::ptrdiff_t i = 0; i < nn; ++i) s += static_cast<W>(xc[i]) * static_cast<W>(yc[i]);
    out[c] = s;
  }
}

/// out[c] = ‖x_c‖₂ per column (double-rounded sqrt store).
template <class T>
void nrm2_cols(const T* x, std::ptrdiff_t ldx, int k, std::size_t n, acc_t<T>* out) {
  using W = acc_t<T>;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  for (int c = 0; c < k; ++c) {
    const T* xc = x + c * ldx;
    W s{0};
    for (std::ptrdiff_t i = 0; i < nn; ++i) {
      const W v = static_cast<W>(xc[i]);
      s += v * v;
    }
    out[c] = static_cast<W>(std::sqrt(static_cast<double>(s)));
  }
}

/// y_c += alpha[c]·x_c per column (`ymap` scatters into original column
/// positions, as in the host kernel).
template <class TX, class TY, class S>
void axpy_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, TY* yp,
               std::ptrdiff_t ldy, int k, std::size_t n, const int* ymap = nullptr) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  for (int c = 0; c < k; ++c) {
    const W a = static_cast<W>(alpha[c]);
    const TX* xc = x + c * ldx;
    TY* yc = yp + (ymap != nullptr ? ymap[c] : c) * ldy;
    for (std::ptrdiff_t i = 0; i < nn; ++i)
      yc[i] = static_cast<TY>(static_cast<W>(yc[i]) + a * static_cast<W>(xc[i]));
  }
}

/// y_c = alpha[c]·x_c + beta[c]·y_c per column.
template <class TX, class TY, class S>
void axpby_cols(const S* alpha, const TX* x, std::ptrdiff_t ldx, const S* beta, TY* yp,
                std::ptrdiff_t ldy, int k, std::size_t n) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t nn = static_cast<std::ptrdiff_t>(n);
  for (int c = 0; c < k; ++c) {
    const W a = static_cast<W>(alpha[c]), b = static_cast<W>(beta[c]);
    const TX* xc = x + c * ldx;
    TY* yc = yp + c * ldy;
    for (std::ptrdiff_t i = 0; i < nn; ++i)
      yc[i] = static_cast<TY>(a * static_cast<W>(xc[i]) + b * static_cast<W>(yc[i]));
  }
}

// ---------------------------------------------------------------------------
// Sparse products
// ---------------------------------------------------------------------------

/// y = A x over CSR: one accumulator per row.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(CsrView<MT> a, std::span<const XT> x, std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const index_t* rp = a.row_ptr.data();
  const index_t* ci = a.col_idx.data();
  const MT* v = a.vals.data();
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    Acc s{0};
    for (index_t t = rp[i]; t < rp[i + 1]; ++t)
      s += static_cast<Acc>(v[t]) * static_cast<Acc>(x[ci[t]]);
    y[i] = static_cast<YT>(s);
  }
}

/// y = b - A x over CSR.
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(CsrView<MT> a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const index_t* rp = a.row_ptr.data();
  const index_t* ci = a.col_idx.data();
  const MT* v = a.vals.data();
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    Acc s{0};
    for (index_t t = rp[i]; t < rp[i + 1]; ++t)
      s += static_cast<Acc>(v[t]) * static_cast<Acc>(x[ci[t]]);
    y[i] = static_cast<YT>(static_cast<Acc>(b[i]) - s);
  }
}

/// ‖b - A x‖₂ / ‖b‖₂ in fp64 (the outer convergence criterion).
template <class MT, class XT>
double relative_residual(CsrView<MT> a, std::span<const XT> x,
                         std::span<const double> b) {
  const std::ptrdiff_t n = a.nrows;
  const index_t* rp = a.row_ptr.data();
  const index_t* ci = a.col_idx.data();
  const MT* v = a.vals.data();
  double rr = 0.0, bb = 0.0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double s = b[i];
    for (index_t t = rp[i]; t < rp[i + 1]; ++t)
      s -= static_cast<double>(v[t]) * static_cast<double>(x[ci[t]]);
    rr += s * s;
    bb += b[i] * b[i];
  }
  return bb == 0.0 ? std::sqrt(rr) : std::sqrt(rr / bb);
}

namespace detail {

/// Dot of one SELL lane (stride-C walk), one accumulator.
template <class MT, class XT, class Acc>
inline Acc lane_dot(const MT* vals, const index_t* cols, const XT* x, index_t base,
                    index_t lane, index_t w, int C) {
  Acc s{0};
  for (index_t j = 0; j < w; ++j) {
    const index_t t = base + j * C + lane;
    s += static_cast<Acc>(vals[t]) * static_cast<Acc>(x[cols[t]]);
  }
  return s;
}

}  // namespace detail

/// y = A x over SELL-C: plain lane walks (padding contributes exact zeros).
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(SellView<MT> a, std::span<const XT> x, std::span<YT> y) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  for (index_t sl = 0; sl < ns; ++sl) {
    const index_t r0 = sl * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    for (index_t i = r0; i < r1; ++i)
      y[i] = static_cast<YT>(detail::lane_dot<MT, XT, Acc>(
          a.vals.data(), a.cols.data(), x.data(), a.slice_ptr[sl], i - r0,
          a.slice_width[sl], C));
  }
}

/// y = b - A x over SELL-C.
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(SellView<MT> a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  for (index_t sl = 0; sl < ns; ++sl) {
    const index_t r0 = sl * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    for (index_t i = r0; i < r1; ++i) {
      const Acc s = detail::lane_dot<MT, XT, Acc>(a.vals.data(), a.cols.data(), x.data(),
                                                  a.slice_ptr[sl], i - r0,
                                                  a.slice_width[sl], C);
      y[i] = static_cast<YT>(static_cast<Acc>(b[i]) - s);
    }
  }
}

/// Y_c = A X_c over CSR, per column.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(CsrView<MT> a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  const std::ptrdiff_t n = a.nrows;
  const index_t* rp = a.row_ptr.data();
  const index_t* ci = a.col_idx.data();
  const MT* v = a.vals.data();
  for (int c = 0; c < k; ++c) {
    const XT* xc = x + c * ldx;
    YT* yc = y + c * ldy;
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      Acc s{0};
      for (index_t t = rp[i]; t < rp[i + 1]; ++t)
        s += static_cast<Acc>(v[t]) * static_cast<Acc>(xc[ci[t]]);
      yc[i] = static_cast<YT>(s);
    }
  }
}

/// Y_c = A X_c over SELL-C, per column.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmm(SellView<MT> a, const XT* x, std::ptrdiff_t ldx, YT* y,
          std::ptrdiff_t ldy, int k) {
  for (int c = 0; c < k; ++c) {
    const XT* xc = x + static_cast<std::ptrdiff_t>(c) * ldx;
    YT* yc = y + static_cast<std::ptrdiff_t>(c) * ldy;
    serial::spmv<MT, XT, YT, Acc>(a, std::span<const XT>(xc, static_cast<std::size_t>(a.nrows)),
                          std::span<YT>(yc, static_cast<std::size_t>(a.nrows)));
  }
}

}  // namespace nk::serial
