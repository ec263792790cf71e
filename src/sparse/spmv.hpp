// Sparse matrix-vector products over CSR, including the mixed-precision
// variants the paper relies on:
//
//   * fp64 A × fp64 x   — outermost FGMRES level
//   * fp32 A × fp32 x   — second FGMRES level
//   * fp16 A × fp32 x   — third FGMRES level ("F^m3 performs SpMV in fp32
//                          because A is stored in fp16 while the input
//                          Arnoldi basis is in fp32")
//   * fp16 A × fp16 x   — innermost Richardson
//
// The accumulation type defaults to the promoted input type, i.e. a pure
// fp16 product accumulates in fp16 exactly as native fp16 FMA hardware
// would (GCC rounds each _Float16 operation to binary16).
#pragma once

#include <span>
#include <type_traits>

#include "base/blas1.hpp"
#include "sparse/csr.hpp"

namespace nk {

namespace detail {

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
/// fp16 values × fp32 gathered vector, 16 lanes at a time: convert the
/// values (vcvtph2ps), gather x (vgatherdps), one FMA chain per lane, the
/// row tail under a mask, then one horizontal reduce.  The mask and zero
/// operands are explicit throughout: the unmasked intrinsics pass an
/// `undefined` source that GCC 12 flags under -Wmaybe-uninitialized.
inline float row_dot_f16_f32_x16(const half* __restrict v, const index_t* __restrict ci,
                                 const float* __restrict x, index_t begin, index_t end) {
  const __m512 zero = _mm512_setzero_ps();
  __m512 acc = zero;
  index_t k = begin;
  for (; k + 16 <= end; k += 16) {
    const __m512 vv = _mm512_maskz_cvtph_ps(
        0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + k)));
    const __m512i idx = _mm512_loadu_si512(ci + k);
    acc = _mm512_fmadd_ps(vv, _mm512_mask_i32gather_ps(zero, 0xFFFF, idx, x, 4), acc);
  }
  if (k < end) {
    const auto m = static_cast<__mmask16>((1u << (end - k)) - 1u);
    const __m512 vv = _mm512_maskz_cvtph_ps(0xFFFF, _mm256_maskz_loadu_epi16(m, v + k));
    const __m512i idx = _mm512_maskz_loadu_epi32(m, ci + k);
    acc = _mm512_fmadd_ps(vv, _mm512_mask_i32gather_ps(zero, m, idx, x, 4), acc);
  }
  return reduce_add_16(acc);
}
#endif

/// Dot of one CSR row with a gathered vector, accumulating in Acc.
///
/// One accumulation chain makes a row latency-bound rather than
/// bandwidth-bound, so the fp16-storage paths, which stream the fewest
/// bytes, split it:
///   * fp16 × fp32 on an AVX-512 build: row_dot_f16_f32_x16's 16 lanes.
///   * other fp16 storage: four independent partial sums — lane
///     (k − begin) mod 4 over the 4-aligned prefix, the remainder into
///     lane 0, combined as (s0+s1)+(s2+s3).  With a half accumulator
///     (fp16 × fp16) this is four half chains; with a wider one the
///     values are converted 16 at a time first: a naive
///     `(float)v[k] * x[ci[k]]` loop emits scalar `vcvtsh2ss` whose
///     destination-register merge adds a false serial dependency across
///     iterations (~2x slower than fp64), a vectorizable `vcvtph2ps` of a
///     16-value chunk does not.
///   * fp32/fp64 storage: one plain `s += v·x` chain.
template <class MT, class XT, class Acc>
inline Acc row_dot(const MT* __restrict v, const index_t* __restrict ci,
                   const XT* __restrict x, index_t begin, index_t end) {
  if constexpr (sizeof(MT) == 2) {
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
    if constexpr (std::is_same_v<MT, half> && std::is_same_v<XT, float> &&
                  std::is_same_v<Acc, float>)
      return row_dot_f16_f32_x16(v, ci, x, begin, end);
#endif
    Acc s0{0}, s1{0}, s2{0}, s3{0};
    index_t k = begin;
    if constexpr (!std::is_same_v<Acc, MT>) {
      Acc vf[16];
      for (; k + 16 <= end; k += 16) {
        if constexpr (std::is_same_v<Acc, float>)
          half_to_float_n(v + k, vf, 16);  // GCC can't vectorize this loop itself
        else
          for (int j = 0; j < 16; ++j) vf[j] = static_cast<Acc>(v[k + j]);
        for (int j = 0; j < 16; j += 4) {
          s0 += vf[j] * static_cast<Acc>(x[ci[k + j]]);
          s1 += vf[j + 1] * static_cast<Acc>(x[ci[k + j + 1]]);
          s2 += vf[j + 2] * static_cast<Acc>(x[ci[k + j + 2]]);
          s3 += vf[j + 3] * static_cast<Acc>(x[ci[k + j + 3]]);
        }
      }
    }
    for (; k + 4 <= end; k += 4) {
      s0 += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
      s1 += static_cast<Acc>(v[k + 1]) * static_cast<Acc>(x[ci[k + 1]]);
      s2 += static_cast<Acc>(v[k + 2]) * static_cast<Acc>(x[ci[k + 2]]);
      s3 += static_cast<Acc>(v[k + 3]) * static_cast<Acc>(x[ci[k + 3]]);
    }
    for (; k < end; ++k) s0 += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
    return (s0 + s1) + (s2 + s3);
  } else {
    Acc s{0};
    for (index_t k = begin; k < end; ++k)
      s += static_cast<Acc>(v[k]) * static_cast<Acc>(x[ci[k]]);
    return s;
  }
}

}  // namespace detail

/// y = A x.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(CsrView<MT> a, std::span<const XT> x, std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = a.nnz();
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  const XT* __restrict xp = x.data();
  YT* __restrict yp = y.data();
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    yp[i] = static_cast<YT>(detail::row_dot<MT, XT, Acc>(v, ci, xp, rp[i], rp[i + 1]));
}

/// y = b - A x  (fused residual; saves one pass over y).
template <class MT, class XT, class BT, class YT, class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(CsrView<MT> a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  const std::ptrdiff_t n = a.nrows;
  const std::ptrdiff_t work = a.nnz();
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  const XT* __restrict xp = x.data();
  const BT* __restrict bp = b.data();
  YT* __restrict yp = y.data();
#pragma omp parallel for schedule(static) if (work > blas::parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const Acc s = detail::row_dot<MT, XT, Acc>(v, ci, xp, rp[i], rp[i + 1]);
    yp[i] = static_cast<YT>(static_cast<Acc>(bp[i]) - s);
  }
}

/// ‖b - A x‖₂ / ‖b‖₂ computed entirely in fp64 — the paper's convergence
/// criterion, evaluated at the outermost level only.  The two sums run in
/// row order per thread and combine in thread order (blas::detail::
/// partial_sums), so one thread count gives one result.
template <class MT, class XT>
double relative_residual(CsrView<MT> a, std::span<const XT> x,
                         std::span<const double> b) {
  const index_t* __restrict rp = a.row_ptr.data();
  const index_t* __restrict ci = a.col_idx.data();
  const MT* __restrict v = a.vals.data();
  double acc[2] = {};  // ‖b − Ax‖², ‖b‖²
  blas::detail::partial_sums(a.nrows, 2, a.nnz() > blas::parallel_threshold(), acc,
                             [&](std::ptrdiff_t i0, std::ptrdiff_t i1, double* part) {
                               double rr = part[0], bb = part[1];
                               for (std::ptrdiff_t i = i0; i < i1; ++i) {
                                 double s = b[i];
                                 for (index_t k = rp[i]; k < rp[i + 1]; ++k)
                                   s -= static_cast<double>(v[k]) * static_cast<double>(x[ci[k]]);
                                 rr += s * s;
                                 bb += b[i] * b[i];
                               }
                               part[0] = rr, part[1] = bb;
                             });
  const double rr = acc[0], bb = acc[1];
  return bb == 0.0 ? std::sqrt(rr) : std::sqrt(rr / bb);
}

// The owning CsrMatrix reads through its view.
template <class MT, class XT, class YT, class Acc = promote_t<MT, XT>>
void spmv(const CsrMatrix<MT>& a, std::span<const XT> x, std::span<YT> y) {
  spmv<MT, XT, YT, Acc>(CsrView<MT>(a), x, y);
}
template <class MT, class XT, class BT, class YT, class Acc = promote_t<promote_t<MT, XT>, BT>>
void residual(const CsrMatrix<MT>& a, std::span<const XT> x, std::span<const BT> b,
              std::span<YT> y) {
  residual<MT, XT, BT, YT, Acc>(CsrView<MT>(a), x, b, y);
}
template <class MT, class XT>
double relative_residual(const CsrMatrix<MT>& a, std::span<const XT> x,
                         std::span<const double> b) {
  return relative_residual<MT, XT>(CsrView<MT>(a), x, b);
}

}  // namespace nk
