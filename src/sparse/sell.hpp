// Sliced ELLPACK (SELL-C) sparse format (Monakov et al., 2010).
//
// The paper's GPU experiments store matrices in sliced ELLPACK with a chunk
// (slice) size of 32.  Rows are grouped into slices of C consecutive rows;
// each slice is padded to its longest row and stored column-major within
// the slice so that consecutive lanes read consecutive memory — the GPU
// coalescing layout.  We reproduce the format faithfully (including padding
// behaviour) on the CPU substrate; see DESIGN.md §4 for the GPU
// substitution rationale.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "base/blas1.hpp"
#include "sparse/csr.hpp"

namespace nk {

/// The slice structure of a SELL-C matrix: everything but the values.
struct SellPattern {
  index_t nrows = 0;
  index_t ncols = 0;
  int chunk = 32;                     ///< slice height C (paper: 32)
  std::vector<index_t> slice_ptr;     ///< per-slice offset into cols/vals (size nslices+1)
  std::vector<index_t> slice_width;   ///< padded width of each slice
  std::vector<index_t> cols;          ///< padded, column-major within slice

  [[nodiscard]] index_t nslices() const {
    return static_cast<index_t>((nrows + chunk - 1) / chunk);
  }

  /// Stored entries including padding.
  [[nodiscard]] std::size_t padded_nnz() const { return cols.size(); }

  /// Bytes of the three index arrays.
  [[nodiscard]] std::size_t index_bytes() const {
    return (slice_ptr.size() + slice_width.size() + cols.size()) * sizeof(index_t);
  }
};

template <class T>
struct SellMatrix : SellPattern {
  using value_type = T;

  std::vector<T> vals;                ///< padded, column-major within slice
};

/// Values at precision T over a shared slice structure (the fp32/fp16
/// copies of A when the operators run SELL).
template <class T>
struct SellValues {
  using value_type = T;

  std::shared_ptr<const SellPattern> pat;
  std::vector<T> vals;  ///< size pat->padded_nnz()
};

/// `vals` rounded to Dst over `pat`, which is shared, not copied.  Padding
/// stays an exact zero, so this equals csr_to_sell of the cast CSR matrix.
template <class Dst, class Src>
SellValues<Dst> cast_values(std::shared_ptr<const SellPattern> pat,
                            const std::vector<Src>& vals) {
  SellValues<Dst> out{std::move(pat), std::vector<Dst>(vals.size())};
  blas::convert<Src, Dst>(std::span<const Src>(vals), std::span<Dst>(out.vals));
  return out;
}

/// A read-only SELL-C matrix that owns nothing — what the SELL kernels read
/// (see CsrView).
template <class T>
struct SellView {
  using value_type = T;

  index_t nrows = 0;
  index_t ncols = 0;
  int chunk = 32;
  std::span<const index_t> slice_ptr;
  std::span<const index_t> slice_width;
  std::span<const index_t> cols;
  std::span<const T> vals;

  SellView(const SellPattern& p, std::span<const T> v)
      : nrows(p.nrows), ncols(p.ncols), chunk(p.chunk), slice_ptr(p.slice_ptr),
        slice_width(p.slice_width), cols(p.cols), vals(v) {}
  // Implicit, so either owner passes where a view is expected.
  SellView(const SellMatrix<T>& a) : SellView(a, a.vals) {}
  SellView(const SellValues<T>& a) : SellView(*a.pat, a.vals) {}

  [[nodiscard]] index_t nslices() const {
    return static_cast<index_t>((nrows + chunk - 1) / chunk);
  }
  [[nodiscard]] std::size_t padded_nnz() const { return vals.size(); }
};

/// Convert CSR → SELL-C.  Padding entries carry column 0 and value 0 so the
/// kernel needs no branch; `pad_ratio` (padded/real nnz) measures overhead.
template <class T>
SellMatrix<T> csr_to_sell(const CsrMatrix<T>& a, int chunk = 32) {
  SellMatrix<T> s;
  s.nrows = a.nrows;
  s.ncols = a.ncols;
  s.chunk = chunk;
  const index_t ns = s.nslices();
  s.slice_ptr.assign(ns + 1, 0);
  s.slice_width.assign(ns, 0);
  for (index_t sl = 0; sl < ns; ++sl) {
    index_t w = 0;
    const index_t r0 = sl * chunk;
    const index_t r1 = std::min<index_t>(r0 + chunk, a.nrows);
    for (index_t i = r0; i < r1; ++i)
      w = std::max(w, a.row_ptr[i + 1] - a.row_ptr[i]);
    s.slice_width[sl] = w;
    s.slice_ptr[sl + 1] = s.slice_ptr[sl] + w * chunk;
  }
  s.cols.assign(s.slice_ptr[ns], 0);
  s.vals.assign(s.slice_ptr[ns], static_cast<T>(0));
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * chunk;
    const index_t r1 = std::min<index_t>(r0 + chunk, a.nrows);
    const index_t base = s.slice_ptr[sl];
    for (index_t i = r0; i < r1; ++i) {
      const index_t lane = i - r0;
      index_t j = 0;
      for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k, ++j) {
        s.cols[base + j * chunk + lane] = a.col_idx[k];
        s.vals[base + j * chunk + lane] = a.vals[k];
      }
      // remaining lanes already zero-padded; point padding at the row's own
      // first column when available to keep accesses in-range and local
      for (; j < s.slice_width[sl]; ++j)
        s.cols[base + j * chunk + lane] =
            (a.row_ptr[i + 1] > a.row_ptr[i]) ? a.col_idx[a.row_ptr[i]] : 0;
    }
  }
  return s;
}

/// Padding overhead: padded_nnz / nnz (>= 1).
inline double sell_pad_ratio(const SellPattern& s, index_t real_nnz) {
  return real_nnz == 0 ? 1.0
                       : static_cast<double>(s.padded_nnz()) / static_cast<double>(real_nnz);
}

/// Largest slice height the SIMD kernel handles with stack accumulators.
/// The paper's setting is C = 32; anything up to 64 stays on the fast path.
inline constexpr int kSellSimdMaxChunk = 64;

namespace sell_detail {

/// Dot of one SELL lane (stride-C elements), accumulating in Acc.  Four
/// independent partial sums break the scalar-convert dependency chain on
/// mixed half→float reads (see spmv.hpp's row_dot note).
template <class MT, class XT, class Acc>
inline Acc lane_dot(const MT* __restrict vals, const index_t* __restrict cols,
                    const XT* __restrict x, index_t base, index_t lane, index_t w, int C) {
  if constexpr (sizeof(MT) == 2 && !std::is_same_v<Acc, MT>) {
    Acc s0{0}, s1{0}, s2{0}, s3{0};
    index_t j = 0;
    for (; j + 4 <= w; j += 4) {
      const index_t k = base + j * C + lane;
      s0 += static_cast<Acc>(vals[k]) * static_cast<Acc>(x[cols[k]]);
      s1 += static_cast<Acc>(vals[k + C]) * static_cast<Acc>(x[cols[k + C]]);
      s2 += static_cast<Acc>(vals[k + 2 * C]) * static_cast<Acc>(x[cols[k + 2 * C]]);
      s3 += static_cast<Acc>(vals[k + 3 * C]) * static_cast<Acc>(x[cols[k + 3 * C]]);
    }
    for (; j < w; ++j) {
      const index_t k = base + j * C + lane;
      s0 += static_cast<Acc>(vals[k]) * static_cast<Acc>(x[cols[k]]);
    }
    return (s0 + s1) + (s2 + s3);
  } else {
    Acc s{0};
    for (index_t j = 0; j < w; ++j) {
      const index_t k = base + j * C + lane;
      s += static_cast<Acc>(vals[k]) * static_cast<Acc>(x[cols[k]]);
    }
    return s;
  }
}

/// Column-major SIMD slice sweep: for each stored column j of the slice,
/// one `omp simd` pass across the C lanes.  This is the access pattern
/// SELL-C exists for (Monakov et al. 2010): `vals`/`cols` reads are
/// contiguous across lanes (unit stride), the per-lane accumulators are
/// independent (no reduction dependency), and on fp16 storage the C
/// adjacent half values convert with vectorized vcvtph2ps instead of the
/// serial scalar converts a lane-at-a-time walk degenerates to.
/// Padding lanes accumulate exact zeros and are discarded by the stores.
template <class MT, class XT, class Acc, class Store>
inline void slice_sweep_simd(const MT* __restrict vals, const index_t* __restrict cols,
                             const XT* __restrict x, index_t base, index_t w, int C,
                             index_t r0, index_t r1, Store&& store) {
  Acc acc[kSellSimdMaxChunk] = {};
  XT xb[kSellSimdMaxChunk];
  for (index_t j = 0; j < w; ++j) {
    const MT* __restrict vj = vals + base + static_cast<std::ptrdiff_t>(j) * C;
    const index_t* __restrict cj = cols + base + static_cast<std::ptrdiff_t>(j) * C;
    // Gather first, arithmetic second: the gather loop is the only
    // irregular access, and splitting it out leaves the FMA loop fully
    // contiguous so it vectorizes for every precision combo.
#pragma omp simd
    for (int lane = 0; lane < C; ++lane) xb[lane] = x[cj[lane]];
    if constexpr (sizeof(MT) == 2 && !std::is_same_v<Acc, MT>) {
      // Convert the C adjacent half values in one vectorized pass; a scalar
      // convert inside the FMA loop would serialize on its destination-
      // register merge (see spmv.hpp's row_dot note), and GCC cannot
      // auto-vectorize _Float16→float, hence the explicit F16C helper.
      Acc vf[kSellSimdMaxChunk];
      if constexpr (std::is_same_v<Acc, float>) {
        half_to_float_n(vj, vf, C);
      } else {
        for (int lane = 0; lane < C; ++lane) vf[lane] = static_cast<Acc>(vj[lane]);
      }
#pragma omp simd
      for (int lane = 0; lane < C; ++lane) acc[lane] += vf[lane] * static_cast<Acc>(xb[lane]);
    } else {
#pragma omp simd
      for (int lane = 0; lane < C; ++lane)
        acc[lane] += static_cast<Acc>(vj[lane]) * static_cast<Acc>(xb[lane]);
    }
  }
  for (index_t i = r0; i < r1; ++i) store(i, acc[i - r0]);
}

}  // namespace sell_detail

/// y = A x over SELL-C, row-wise (each lane walks its row with stride-C
/// reads).  The only SELL SpMV for chunk > kSellSimdMaxChunk: spmv() falls
/// back to it there, since the SIMD kernel's per-slice lane accumulators
/// are sized for at most kSellSimdMaxChunk lanes.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv_rowwise(SellView<MT> a, std::span<const XT> x, std::span<YT> y) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(a.padded_nnz()) > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    const index_t base = a.slice_ptr[sl];
    const index_t w = a.slice_width[sl];
    for (index_t i = r0; i < r1; ++i) {
      y[i] = static_cast<YT>(sell_detail::lane_dot<MT, XT, Acc>(
          a.vals.data(), a.cols.data(), x.data(), base, i - r0, w, C));
    }
  }
}

/// y = A x over SELL-C: column-major within each slice, SIMD across lanes.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(SellView<MT> a, std::span<const XT> x, std::span<YT> y) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
  if (C > kSellSimdMaxChunk) {  // oversize chunks fall back to the lane walk
    spmv_rowwise<MT, XT, YT, Acc>(a, x, y);
    return;
  }
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(a.padded_nnz()) > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    sell_detail::slice_sweep_simd<MT, XT, Acc>(
        a.vals.data(), a.cols.data(), x.data(), a.slice_ptr[sl], a.slice_width[sl], C, r0, r1,
        [&](index_t i, Acc s) { y[i] = static_cast<YT>(s); });
  }
}

/// y = b - A x over SELL-C (fused residual, same SIMD slice sweep).
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(SellView<MT> a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  const index_t ns = a.nslices();
  const int C = a.chunk;
#pragma omp parallel for schedule(static) if (static_cast<std::ptrdiff_t>(a.padded_nnz()) > blas::parallel_threshold())
  for (std::ptrdiff_t sl = 0; sl < static_cast<std::ptrdiff_t>(ns); ++sl) {
    const index_t r0 = static_cast<index_t>(sl) * C;
    const index_t r1 = std::min<index_t>(r0 + C, a.nrows);
    const index_t base = a.slice_ptr[sl];
    const index_t w = a.slice_width[sl];
    if (C <= kSellSimdMaxChunk) {
      sell_detail::slice_sweep_simd<MT, XT, Acc>(
          a.vals.data(), a.cols.data(), x.data(), base, w, C, r0, r1,
          [&](index_t i, Acc s) { y[i] = static_cast<YT>(static_cast<Acc>(b[i]) - s); });
    } else {
      for (index_t i = r0; i < r1; ++i) {
        const Acc s = sell_detail::lane_dot<MT, XT, Acc>(a.vals.data(), a.cols.data(),
                                                         x.data(), base, i - r0, w, C);
        y[i] = static_cast<YT>(static_cast<Acc>(b[i]) - s);
      }
    }
  }
}

// The owning SellMatrix reads through its view.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv_rowwise(const SellMatrix<MT>& a, std::span<const XT> x, std::span<YT> y) {
  spmv_rowwise<MT, XT, YT, Acc>(SellView<MT>(a), x, y);
}
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(const SellMatrix<MT>& a, std::span<const XT> x, std::span<YT> y) {
  spmv<MT, XT, YT, Acc>(SellView<MT>(a), x, y);
}
template <class MT, class XT, class BT, class YT,
          class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(const SellMatrix<MT>& a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  residual<MT, XT, BT, YT, Acc>(SellView<MT>(a), x, b, y);
}

}  // namespace nk
