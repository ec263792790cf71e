// Mixed-precision BLAS-1 kernels.
//
// All kernels are OpenMP-parallel over contiguous index ranges (the paper
// multi-threads every vector operation row-wise).  Reductions over fp16 data
// accumulate in fp32 via nk::acc_t; mixed-type operations compute in the
// wider of the input types (nk::promote_t), matching the paper's rule that
// higher-precision instructions are used when inputs differ in precision.
//
// Every parallel loop carries an `if(n > parallel_threshold())` clause: the
// inner levels of F3R operate on short vectors millions of times per solve,
// and an OpenMP fork-join on a vector that fits in L1 costs more than the
// arithmetic it distributes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <span>
#include <vector>

#include "base/env.hpp"
#include "base/half.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nk {

using index_t = std::int32_t;  // the paper stores indices as 32-bit integers

namespace blas {

/// Minimum element count before a kernel opens an OpenMP parallel region.
/// Override with the environment variable NKRYLOV_PAR_THRESHOLD (elements;
/// 0 = always parallel).  Malformed values ("4096x", negatives) warn once
/// and keep the default — a set knob never silently half-applies.
inline std::ptrdiff_t parallel_threshold() {
  static const std::ptrdiff_t t =
      static_cast<std::ptrdiff_t>(env_long("NKRYLOV_PAR_THRESHOLD", 4096, 0));
  return t;
}

/// Greedy column-group decomposition shared by the batched kernels
/// (spmm, ilu_solve_many, dot_cols): the largest pinned compile-time tier
/// (`max_tier`, then 8, then 4) that fits the remaining columns, dynamic
/// only for a < 4 tail.  An arbitrary width — e.g. a compacted active set —
/// therefore runs almost entirely in the fully-unrolled kernels.  Grouping
/// never changes per-column results (columns are independent).
constexpr int greedy_group(int remaining, int max_tier) {
  if (remaining >= max_tier) return max_tier;
  if (remaining >= 8) return 8;
  if (remaining >= 4) return 4;
  return remaining;
}

namespace detail {

/// The one parallel summation order of the host reductions (dot, nrm2,
/// dot_many, dot_cols, relative_residual): [0, n4) splits into one contiguous chunk
/// per team thread, ceil(n4/nt) rounded up to a multiple of 4 (so the fp16
/// four-way unroll stays aligned), `body(i0, i1, part)` accumulates
/// `lanes` partial sums over its chunk, and the per-thread partials are
/// added into acc[0, lanes) in thread order.  Deterministic for a fixed thread count
/// — an OpenMP `reduction` clause combines in thread-arrival order — and
/// identical to the serial chain body(0, n4, acc) when one thread runs, so
/// a dot equals the matching dot_many column at every thread count.
template <class W, class Body>
void partial_sums(std::ptrdiff_t n4, int lanes, bool par, W* acc, Body&& body) {
#ifdef _OPENMP
  if (par) {
    // Reusable team-wide scratch owned by the CALLING thread (grows, never
    // shrinks: no malloc per call).  The pointer is hoisted before the
    // parallel region — naming `partial` inside it would resolve to each
    // worker's own (empty) thread_local instance.
    // Each thread's slot is padded to whole cache lines, so the threads'
    // stores do not contend for one line, and each thread zeroes its own
    // slot inside the region (no serial clear per call).
    constexpr int kLine = static_cast<int>(64 / sizeof(W));
    const int stride = (lanes + kLine - 1) / kLine * kLine;
    static thread_local std::vector<W> partial;
    const std::size_t need = static_cast<std::size_t>(omp_get_max_threads()) * stride;
    if (partial.size() < need) partial.resize(need);
    W* const part = partial.data();
    int used = 1;
#pragma omp parallel
    {
      const int nt = omp_get_num_threads();
      const int tid = omp_get_thread_num();
      if (tid == 0) used = nt;  // read after the region's closing barrier
      const std::ptrdiff_t per = (((n4 + nt - 1) / nt) + 3) / 4 * 4;
      const std::ptrdiff_t i0 = std::min<std::ptrdiff_t>(per * tid, n4);
      const std::ptrdiff_t i1 = std::min<std::ptrdiff_t>(i0 + per, n4);
      W* const mine = part + static_cast<std::size_t>(tid) * stride;
      std::fill_n(mine, lanes, W{0});
      if (i0 < i1) body(i0, i1, mine);
    }
    for (int t = 0; t < used; ++t)
      for (int j = 0; j < lanes; ++j) acc[j] += part[static_cast<std::size_t>(t) * stride + j];
    return;
  }
#else
  (void)par;
#endif
  body(0, n4, acc);
}

}  // namespace detail

/// Chunk length for the tiled fp16 kernels below (fits L1 alongside the
/// streamed operand).
inline constexpr std::ptrdiff_t kHalfChunk = 1024;

/// Present `len` elements of `src` in the accumulator precision W, using
/// `buf` as scratch when a conversion is needed.  fp16 sources convert via
/// the vectorized F16C helper — half→float is conversion-exact, so working
/// on the converted chunk is bit-identical to converting inside the
/// arithmetic loop (which GCC 12 scalarizes into a serial vcvtsh2ss chain;
/// see half.hpp).
template <class T, class W>
inline const W* to_acc_chunk(const T* src, W* buf, std::ptrdiff_t len) {
  if constexpr (std::is_same_v<T, W>) {
    return src;
  } else if constexpr (std::is_same_v<T, half> && std::is_same_v<W, float>) {
    half_to_float_n(src, buf, len);
    return buf;
  } else {
    for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] = static_cast<W>(src[i]);
    return buf;
  }
}

/// y[i] = x[i] converted to the destination type.
template <class Src, class Dst>
void convert(std::span<const Src> x, std::span<Dst> y) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  if constexpr ((std::is_same_v<Src, half> && std::is_same_v<Dst, float>) ||
                (std::is_same_v<Src, float> && std::is_same_v<Dst, half>)) {
    // The precision-bridge hot path (every F3R inner-level invocation):
    // vectorized F16C conversion, chunked so it still parallelizes.
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t t0 = 0; t0 < n; t0 += kHalfChunk) {
      const std::ptrdiff_t len = std::min(t0 + kHalfChunk, n) - t0;
      if constexpr (std::is_same_v<Src, half>)
        half_to_float_n(x.data() + t0, y.data() + t0, len);
      else
        float_to_half_n(x.data() + t0, y.data() + t0, len);
    }
  } else {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i) y[i] = static_cast<Dst>(x[i]);
  }
}

/// y = x (same type fast path).
template <class T>
void copy(std::span<const T> x, std::span<T> y) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) y[i] = x[i];
}

/// x = 0.
template <class T>
void set_zero(std::span<T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) x[i] = static_cast<T>(0);
}

/// x *= alpha.
template <class T, class S>
void scal(S alpha, std::span<T> x) {
  using W = promote_t<T, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const auto a = static_cast<W>(alpha);
  if constexpr (std::is_same_v<T, half> && std::is_same_v<W, float>) {
    T* __restrict xp = x.data();
    // Same per-element op — x[i] = half(a·float(x[i])) — via the
    // vectorized F16C conversions (GCC scalarizes _Float16 loops).
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t t0 = 0; t0 < n; t0 += kHalfChunk) {
      const std::ptrdiff_t len = std::min(t0 + kHalfChunk, n) - t0;
      float buf[kHalfChunk];
      half_to_float_n(xp + t0, buf, len);
      for (std::ptrdiff_t i = 0; i < len; ++i) buf[i] *= a;
      float_to_half_n(buf, xp + t0, len);
    }
  } else {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i)
      x[i] = static_cast<T>(a * static_cast<W>(x[i]));
  }
}

/// y += alpha * x   (classic axpy; computes in the promoted type).
template <class TX, class TY, class S>
void axpy(S alpha, std::span<const TX> x, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha);
  if constexpr ((std::is_same_v<TX, half> || std::is_same_v<TY, half>) &&
                std::is_same_v<W, float>) {
    const TX* __restrict xp = x.data();
    TY* __restrict yp = y.data();
    // Same per-element op via chunked F16C conversion (the innermost
    // Richardson update x += ω·r runs entirely on fp16 vectors).
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t t0 = 0; t0 < n; t0 += kHalfChunk) {
      const std::ptrdiff_t len = std::min(t0 + kHalfChunk, n) - t0;
      float xb[kHalfChunk], yb[kHalfChunk];
      const float* xc = to_acc_chunk(xp + t0, xb, len);
      const float* yc = to_acc_chunk(yp + t0, yb, len);
      float out[kHalfChunk];
      for (std::ptrdiff_t i = 0; i < len; ++i) out[i] = yc[i] + a * xc[i];
      if constexpr (std::is_same_v<TY, half>) {
        float_to_half_n(out, yp + t0, len);
      } else {
        for (std::ptrdiff_t i = 0; i < len; ++i) yp[t0 + i] = static_cast<TY>(out[i]);
      }
    }
  } else {
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
    for (std::ptrdiff_t i = 0; i < n; ++i)
      y[i] = static_cast<TY>(static_cast<W>(y[i]) + a * static_cast<W>(x[i]));
  }
}

/// y = alpha * x + beta * y.
template <class TX, class TY, class S>
void axpby(S alpha, std::span<const TX> x, S beta, std::span<TY> y) {
  using W = promote_t<promote_t<TX, TY>, S>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  const W a = static_cast<W>(alpha), b = static_cast<W>(beta);
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    y[i] = static_cast<TY>(a * static_cast<W>(x[i]) + b * static_cast<W>(y[i]));
}

/// z = x - y (elementwise), computed in the promoted type.
template <class TX, class TY, class TZ>
void sub(std::span<const TX> x, std::span<const TY> y, std::span<TZ> z) {
  using W = promote_t<TX, TY>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
#pragma omp parallel for schedule(static) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    z[i] = static_cast<TZ>(static_cast<W>(x[i]) - static_cast<W>(y[i]));
}

/// Dot product; accumulates in acc_t of the promoted input type.
/// Half inputs take a four-way unrolled path: scalar half→float conversion
/// (`vcvtsh2ss`) merges into its destination register, and a single
/// accumulator would serialize the loop on that false dependency.
template <class TX, class TY>
auto dot(std::span<const TX> x, std::span<const TY> y) {
  using W = acc_t<promote_t<TX, TY>>;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  if constexpr (sizeof(TX) == 2 || sizeof(TY) == 2) {
    const std::ptrdiff_t n4 = n - (n % 4);
    W acc[4] = {};
    detail::partial_sums(n4, 4, n > parallel_threshold(), acc,
                         [&](std::ptrdiff_t i0, std::ptrdiff_t i1, W* part) {
                           W s0 = part[0], s1 = part[1], s2 = part[2], s3 = part[3];
                           for (std::ptrdiff_t i = i0; i < i1; i += 4) {
                             s0 += static_cast<W>(x[i]) * static_cast<W>(y[i]);
                             s1 += static_cast<W>(x[i + 1]) * static_cast<W>(y[i + 1]);
                             s2 += static_cast<W>(x[i + 2]) * static_cast<W>(y[i + 2]);
                             s3 += static_cast<W>(x[i + 3]) * static_cast<W>(y[i + 3]);
                           }
                           part[0] = s0, part[1] = s1, part[2] = s2, part[3] = s3;
                         });
    W s0 = acc[0];
    for (std::ptrdiff_t i = n4; i < n; ++i) s0 += static_cast<W>(x[i]) * static_cast<W>(y[i]);
    return (s0 + acc[1]) + (acc[2] + acc[3]);
  } else {
    W acc[1] = {};
    detail::partial_sums(n, 1, n > parallel_threshold(), acc,
                         [&](std::ptrdiff_t i0, std::ptrdiff_t i1, W* part) {
                           W s = part[0];
                           for (std::ptrdiff_t i = i0; i < i1; ++i)
                             s += static_cast<W>(x[i]) * static_cast<W>(y[i]);
                           part[0] = s;
                         });
    return acc[0];
  }
}

/// Euclidean norm; accumulates in acc_t<T> (half → float) as dot(x, x)
/// does, term for term.
template <class T>
auto nrm2(std::span<const T> x) {
  using W = acc_t<T>;
  return static_cast<W>(std::sqrt(static_cast<double>(dot(x, x))));
}

/// Infinity norm (always returned as double; used for diagnostics).
template <class T>
double nrm_inf(std::span<const T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  double m = 0.0;
#pragma omp parallel for schedule(static) reduction(max : m) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const double v = std::fabs(static_cast<double>(x[i]));
    if (v > m) m = v;
  }
  return m;
}

/// Count of non-finite entries (inf/nan) — the fp16 overflow diagnostic.
template <class T>
std::size_t count_nonfinite(std::span<const T> x) {
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(x.size());
  std::size_t c = 0;
#pragma omp parallel for schedule(static) reduction(+ : c) if (n > parallel_threshold())
  for (std::ptrdiff_t i = 0; i < n; ++i)
    if (!std::isfinite(static_cast<double>(x[i]))) ++c;
  return c;
}

}  // namespace blas

/// Convenience: convert a whole vector to another precision.
template <class Dst, class Src>
std::vector<Dst> converted(const std::vector<Src>& x) {
  std::vector<Dst> y(x.size());
  blas::convert<Src, Dst>(std::span<const Src>(x), std::span<Dst>(y));
  return y;
}

}  // namespace nk
