// Tests for the fused multi-vector kernels (base/blas_block.hpp): every
// MT/XT precision pair against naive reference loops, edge sizes, and a
// regression check that the contiguous-basis FGMRES reproduces the seed
// (vector-of-vectors, unfused blas1) implementation exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "base/blas1.hpp"
#include "base/blas_block.hpp"
#include "base/env.hpp"
#include "base/rng.hpp"
#include "krylov/fgmres.hpp"
#include "precond/jacobi.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

// Edge sizes from the issue: empty, single element, sub-unroll, 4k+3
// (exercises the fp16 four-way remainder and multiple tiles).
const std::vector<std::size_t> kSizes = {0, 1, 3, 4099};
const std::vector<int> kCounts = {1, 3, 8};

template <class TV, class TW>
void check_dot_many() {
  for (std::size_t n : kSizes) {
    for (int k : kCounts) {
      const auto vd =
          random_vector<double>(n * static_cast<std::size_t>(k) + 1, 42, -1.0, 1.0);
      const auto wd = random_vector<double>(n + 1, 43, -1.0, 1.0);
      std::vector<TV> v(vd.size());
      for (std::size_t i = 0; i < vd.size(); ++i) v[i] = static_cast<TV>(vd[i]);
      std::vector<TW> w(n);
      for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<TW>(wd[i]);

      using S = acc_t<promote_t<TV, TW>>;
      std::vector<S> out(static_cast<std::size_t>(k), S{99});
      blas::dot_many(v.data(), static_cast<std::ptrdiff_t>(n), k,
                     std::span<const TW>(w), out.data());
      for (int j = 0; j < k; ++j) {
        const auto ref = blas::dot(
            std::span<const TV>(v.data() + static_cast<std::size_t>(j) * n, n),
            std::span<const TW>(w));
        // Same accumulation order as blas::dot at one thread → exact; under
        // OpenMP the thread partitioning differs, so allow a reassociation
        // bound of n·eps in the accumulator precision.
        const double acc_eps = std::is_same_v<S, double> ? 1e-15 : 1e-6;
        const double tol = num_threads() == 1
                               ? 0.0
                               : acc_eps * static_cast<double>(n + 1) *
                                     std::max(1.0, std::abs(static_cast<double>(ref)));
        EXPECT_NEAR(static_cast<double>(out[j]), static_cast<double>(ref), tol)
            << "n=" << n << " k=" << k << " j=" << j;
      }
    }
  }
}

TEST(DotMany, MatchesDotAllPrecisionPairs) {
  check_dot_many<double, double>();
  check_dot_many<float, float>();
  check_dot_many<half, half>();
  check_dot_many<half, float>();
  check_dot_many<float, half>();
  check_dot_many<double, float>();
  check_dot_many<float, double>();
  check_dot_many<half, double>();
  check_dot_many<double, half>();
}

#ifdef _OPENMP
// Regression for the team-wide reduction scratch: force a real multi-thread
// team through the fused kernels' parallel path (k·n far above the default
// 4096-element threshold).  A per-thread `thread_local` scratch indexed by
// tid left every worker writing through its own empty vector — segfault or
// silently dropped partial sums — and the ordinary suite sizes never caught
// it because CI ran single-threaded.
TEST(BlasBlockParallel, MultiThreadTeamThroughFusedKernels) {
  // Restore on every exit path (GTEST_SKIP and ASSERT return early).
  struct ThreadGuard {
    int saved = omp_get_max_threads();
    ~ThreadGuard() { omp_set_num_threads(saved); }
  } guard;
  omp_set_num_threads(4);
  // omp_set_num_threads is a request the runtime may refuse (OMP_THREAD_LIMIT,
  // dynamic adjustment); with a 1-thread team the pre-fix bug is invisible, so
  // prove the team formed or the regression is silently lost.
  int team = 0;
#pragma omp parallel
  {
#pragma omp single
    team = omp_get_num_threads();
  }
  if (team < 2)
    GTEST_SKIP() << "runtime refused a multi-thread team (got " << team << ")";
  const std::size_t n = 200000;
  const int k = 4;

  {  // dot_many, fp64: reassociation-bounded vs a serial reference.
    const auto vd = random_vector<double>(n * k, 48, -1.0, 1.0);
    const auto wd = random_vector<double>(n, 49, -1.0, 1.0);
    std::vector<double> out(k, 99.0);
    blas::dot_many(vd.data(), static_cast<std::ptrdiff_t>(n), k,
                   std::span<const double>(wd), out.data());
    for (int j = 0; j < k; ++j) {
      double ref = 0.0;
      for (std::size_t i = 0; i < n; ++i) ref += vd[j * n + i] * wd[i];
      EXPECT_NEAR(out[j], ref,
                  1e-15 * static_cast<double>(n) * std::max(1.0, std::abs(ref)))
          << "j=" << j;
    }
  }

  {  // dot_many, fp16 inputs / fp32 accumulation: same bound in fp32 eps.
    const auto vd = random_vector<double>(n * k, 50, -1.0, 1.0);
    const auto wd = random_vector<double>(n, 51, -1.0, 1.0);
    std::vector<half> v(n * k), w(n);
    for (std::size_t i = 0; i < n * k; ++i) v[i] = static_cast<half>(vd[i]);
    for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<half>(wd[i]);
    std::vector<float> out(k, 99.0f);
    blas::dot_many(v.data(), static_cast<std::ptrdiff_t>(n), k,
                   std::span<const half>(w), out.data());
    for (int j = 0; j < k; ++j) {
      double ref = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        ref += static_cast<double>(static_cast<float>(v[j * n + i])) *
               static_cast<double>(static_cast<float>(w[i]));
      EXPECT_NEAR(static_cast<double>(out[j]), ref,
                  1e-6 * static_cast<double>(n) * std::max(1.0, std::abs(ref)))
          << "j=" << j;
    }
  }

  {  // axpy_many: element-local chains, bit-exact at any thread count.
    const auto vd = random_vector<double>(n * k, 52, -1.0, 1.0);
    const auto wd = random_vector<double>(n, 53, -1.0, 1.0);
    std::vector<double> fused = wd, ref = wd;
    const double h[] = {0.1, -0.2, 0.3, -0.4};
    blas::axpy_many(vd.data(), static_cast<std::ptrdiff_t>(n), k, h,
                    std::span<double>(fused), true);
    for (int j = 0; j < k; ++j)
      blas::axpy(-h[j], std::span<const double>(vd.data() + j * n, n),
                 std::span<double>(ref));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(fused[i], ref[i]) << "i=" << i;  // abort on first of 200k
  }
}
#endif  // _OPENMP

TEST(DotMany, ZeroCountIsNoop) {
  std::vector<double> v(8, 1.0), w(8, 1.0);
  double out = 123.0;
  blas::dot_many(v.data(), 8, 0, std::span<const double>(w), &out);
  EXPECT_EQ(out, 123.0);
}

template <class TV, class TW>
void check_axpy_many() {
  using S = acc_t<promote_t<TV, TW>>;
  for (std::size_t n : kSizes) {
    for (int k : kCounts) {
      const auto vd =
          random_vector<double>(n * static_cast<std::size_t>(k) + 1, 44, -1.0, 1.0);
      const auto wd = random_vector<double>(n + 1, 45, -1.0, 1.0);
      std::vector<TV> v(vd.size());
      for (std::size_t i = 0; i < vd.size(); ++i) v[i] = static_cast<TV>(vd[i]);
      std::vector<TW> w(n);
      for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<TW>(wd[i]);
      std::vector<S> h(static_cast<std::size_t>(k));
      for (int j = 0; j < k; ++j) h[j] = static_cast<S>(0.1 * (j + 1));

      for (bool subtract : {false, true}) {
        std::vector<TW> fused = w, ref = w;
        blas::axpy_many(v.data(), static_cast<std::ptrdiff_t>(n), k, h.data(),
                        std::span<TW>(fused), subtract);
        for (int j = 0; j < k; ++j)
          blas::axpy(subtract ? -h[j] : h[j],
                     std::span<const TV>(v.data() + static_cast<std::size_t>(j) * n, n),
                     std::span<TW>(ref));
        // Element-local chains with identical per-term rounding: bit-exact
        // at any thread count.
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref[i]))
              << "n=" << n << " k=" << k << " i=" << i << " sub=" << subtract;
      }
    }
  }
}

TEST(AxpyMany, BitExactVsChainedAxpyAllPrecisionPairs) {
  check_axpy_many<double, double>();
  check_axpy_many<float, float>();
  check_axpy_many<half, half>();
  check_axpy_many<half, float>();   // F3R level-3: fp16 basis data, fp32 vectors
  check_axpy_many<float, half>();
  check_axpy_many<double, float>();
}

template <class TX, class TY>
void check_scal_copy() {
  using S = acc_t<promote_t<TX, TY>>;
  for (std::size_t n : kSizes) {
    const auto xd = random_vector<double>(n + 1, 46, -1.0, 1.0);
    std::vector<TX> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<TX>(xd[i]);
    const S a = static_cast<S>(1.0 / 3.0);

    std::vector<TY> fused(n, TY{7});
    blas::scal_copy(a, std::span<const TX>(x), std::span<TY>(fused));

    // Reference: scal in place on a TY copy of x — only valid when TX==TY
    // (that is the only way FGMRES uses it); otherwise compute elementwise.
    for (std::size_t i = 0; i < n; ++i) {
      using W = promote_t<promote_t<TX, TY>, S>;
      const TY ref = static_cast<TY>(static_cast<W>(a) * static_cast<W>(x[i]));
      EXPECT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref)) << "n=" << n;
    }
  }
}

TEST(ScalCopy, BitExactAllPrecisionPairs) {
  check_scal_copy<double, double>();
  check_scal_copy<float, float>();
  check_scal_copy<half, half>();
  check_scal_copy<half, float>();
  check_scal_copy<float, half>();
}

template <class T>
void scal_then_copy_case(const std::vector<double>& xd, std::size_t n) {
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<T>(xd[i]);
  using S = acc_t<T>;
  const S a = static_cast<S>(0.728);
  std::vector<T> fused(n), ref = x;
  blas::scal_copy(a, std::span<const T>(x), std::span<T>(fused));
  blas::scal(a, std::span<T>(ref));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref[i]));
}

TEST(ScalCopy, MatchesScalThenCopy) {
  for (std::size_t n : kSizes) {
    const auto xd = random_vector<double>(n + 1, 47, -2.0, 2.0);
    scal_then_copy_case<double>(xd, n);
    scal_then_copy_case<float>(xd, n);
    scal_then_copy_case<half>(xd, n);
  }
}

// ---------------------------------------------------------------------------
// Batched column reductions and column updates.
//
// Width sweep: k = 1..4 covers the pinned small groups, 5/7/9/17 the odd
// post-compaction widths whose sub-4 tails previously fell off the
// unrolled dispatch, 8/16 the full groups.  Per column every width must be
// bit-identical to single-threaded blas::dot / nrm2 / chained axpy.
// ---------------------------------------------------------------------------

const std::vector<int> kWidths = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17};

/// Build a panel (k columns of length n, ld = n) from doubles.
template <class T>
std::vector<T> make_panel(std::size_t n, int k, std::uint64_t seed) {
  const auto d =
      random_vector<double>(n * static_cast<std::size_t>(k) + 1, seed, -1.0, 1.0);
  std::vector<T> p(n * static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<T>(d[i]);
  return p;
}

template <class TX, class TY>
void check_dot_cols() {
  using S = acc_t<promote_t<TX, TY>>;
  for (std::size_t n : kSizes) {
    for (int k : kWidths) {
      const auto x = make_panel<TX>(n, k, 60);
      const auto y = make_panel<TY>(n, k, 61);
      const auto ldn = static_cast<std::ptrdiff_t>(n);
      const auto kk = static_cast<std::size_t>(k);

      std::vector<S> rm(kk, S{99});
      blas::dot_cols(x.data(), ldn, y.data(), ldn, k, n, rm.data());
      for (int j = 0; j < k; ++j) {
        const auto ref = blas::dot(
            std::span<const TX>(x.data() + static_cast<std::size_t>(j) * n, n),
            std::span<const TY>(y.data() + static_cast<std::size_t>(j) * n, n));
        // blas::dot's summation order per column, at every thread count.
        EXPECT_EQ(static_cast<double>(rm[j]), static_cast<double>(ref))
            << "n=" << n << " k=" << k << " j=" << j;
      }
    }
  }
}

TEST(DotCols, WidthSweepMatchesBlasDot) {
  check_dot_cols<double, double>();
  check_dot_cols<float, float>();
  check_dot_cols<half, half>();
  check_dot_cols<half, float>();
  check_dot_cols<float, half>();
  check_dot_cols<double, float>();
}

template <class T>
void check_nrm2_cols() {
  using S = acc_t<T>;
  for (std::size_t n : kSizes) {
    for (int k : kWidths) {
      const auto x = make_panel<T>(n, k, 62);
      const auto kk = static_cast<std::size_t>(k);
      std::vector<S> rm(kk, S{99});
      blas::nrm2_cols(x.data(), static_cast<std::ptrdiff_t>(n), k, n, rm.data());
      for (int j = 0; j < k; ++j) {
        const auto ref = blas::nrm2(
            std::span<const T>(x.data() + static_cast<std::size_t>(j) * n, n));
        EXPECT_EQ(static_cast<double>(rm[j]), static_cast<double>(ref))
            << "n=" << n << " k=" << k << " j=" << j;
      }
    }
  }
}

TEST(Nrm2Cols, WidthSweepMatchesBlasNrm2) {
  check_nrm2_cols<double>();
  check_nrm2_cols<float>();
  check_nrm2_cols<half>();
}

template <class TX, class TY>
void check_axpy_cols() {
  using S = acc_t<promote_t<TX, TY>>;
  for (std::size_t n : kSizes) {
    for (int k : kWidths) {
      const auto x = make_panel<TX>(n, k, 63);
      const auto y0 = make_panel<TY>(n, k, 64);
      const auto ldn = static_cast<std::ptrdiff_t>(n);
      std::vector<S> alpha(static_cast<std::size_t>(k));
      for (int j = 0; j < k; ++j) alpha[j] = static_cast<S>(0.1 * (j + 1));

      // Fused vs chained blas::axpy: element-local, bit-exact.
      std::vector<TY> fused = y0, ref = y0;
      blas::axpy_cols(alpha.data(), x.data(), ldn, fused.data(), ldn, k, n);
      for (int j = 0; j < k; ++j)
        blas::axpy(alpha[j],
                   std::span<const TX>(x.data() + static_cast<std::size_t>(j) * n, n),
                   std::span<TY>(ref.data() + static_cast<std::size_t>(j) * n, n));
      for (std::size_t i = 0; i < fused.size(); ++i)
        ASSERT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref[i]))
            << "n=" << n << " k=" << k << " i=" << i;

      // Scatter into y through a compaction map (the batched solvers'
      // x-update shape): column c of X updates y column ymap[c].
      if (k >= 3 && n > 0) {
        std::vector<int> ymap(static_cast<std::size_t>(k));
        for (int j = 0; j < k; ++j) ymap[j] = (j + 2) % k;  // a permutation
        std::vector<TY> ys = y0, yr = y0;
        blas::axpy_cols(alpha.data(), x.data(), ldn, ys.data(), ldn, k, n, ymap.data());
        for (int j = 0; j < k; ++j)
          blas::axpy(alpha[j],
                     std::span<const TX>(x.data() + static_cast<std::size_t>(j) * n, n),
                     std::span<TY>(yr.data() +
                                       static_cast<std::size_t>(ymap[j]) * n, n));
        for (std::size_t i = 0; i < ys.size(); ++i)
          ASSERT_EQ(static_cast<double>(ys[i]), static_cast<double>(yr[i]))
              << "n=" << n << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(AxpyCols, WidthSweepMatchesChainedAxpyAndMaps) {
  check_axpy_cols<double, double>();
  check_axpy_cols<float, float>();
  check_axpy_cols<half, half>();
  check_axpy_cols<half, float>();
}

// ---------------------------------------------------------------------------
// Regression: contiguous-basis FGMRES ≡ the seed implementation.
//
// SeedFgmres below is a line-for-line copy of the pre-refactor solver
// (vector-of-vectors bases, unfused blas1 CGS).  The fused solver must
// produce identical iteration counts and (at one thread) identical
// residual estimates and solutions on the fixture problems.
// ---------------------------------------------------------------------------

template <class VT>
struct SeedFgmres {
  using S = acc_t<VT>;
  struct Stats {
    int iters = 0;
    double residual_est = 0.0;
    bool reached_target = false;
  };

  SeedFgmres(Operator<VT>& a, Preconditioner<VT>& m, int mm) : a_(&a), m_(&m), m_dim_(mm) {
    const std::size_t n = static_cast<std::size_t>(a.size());
    v_.assign(static_cast<std::size_t>(mm) + 1, std::vector<VT>(n));
    z_.assign(static_cast<std::size_t>(mm), std::vector<VT>(n));
    w_.resize(n);
    h_.assign(static_cast<std::size_t>((mm + 1) * mm), S{0});
    g_.assign(static_cast<std::size_t>(mm) + 1, S{0});
    cs_.assign(static_cast<std::size_t>(mm), S{0});
    sn_.assign(static_cast<std::size_t>(mm), S{0});
    y_.assign(static_cast<std::size_t>(mm), S{0});
    hcol_.assign(static_cast<std::size_t>(mm) + 1, S{0});
  }

  Stats run(std::span<const VT> b, std::span<VT> x, double abs_target, bool x_nonzero) {
    const auto n = b.size();
    Stats stats;
    if (x_nonzero) {
      a_->residual(b, std::span<const VT>(x.data(), n), std::span<VT>(v_[0]));
    } else {
      blas::copy(b, std::span<VT>(v_[0]));
    }
    const S beta = blas::nrm2(std::span<const VT>(v_[0]));
    if (!(static_cast<double>(beta) > 0.0) ||
        !std::isfinite(static_cast<double>(beta))) {
      stats.residual_est = static_cast<double>(beta);
      stats.reached_target = static_cast<double>(beta) <= abs_target;
      return stats;
    }
    blas::scal(S{1} / beta, std::span<VT>(v_[0]));
    std::fill(g_.begin(), g_.end(), S{0});
    g_[0] = beta;

    const int m = m_dim_;
    int j = 0;
    for (; j < m; ++j) {
      m_->apply(std::span<const VT>(v_[j]), std::span<VT>(z_[j]));
      a_->apply(std::span<const VT>(z_[j]), std::span<VT>(w_));
      for (int i = 0; i <= j; ++i)
        hcol_[i] = blas::dot(std::span<const VT>(v_[i]), std::span<const VT>(w_));
      for (int i = 0; i <= j; ++i)
        blas::axpy(-hcol_[i], std::span<const VT>(v_[i]), std::span<VT>(w_));
      S hj1 = blas::nrm2(std::span<const VT>(w_));
      for (int i = 0; i < j; ++i) {
        const S t = cs_[i] * hcol_[i] + sn_[i] * hcol_[i + 1];
        hcol_[i + 1] = -sn_[i] * hcol_[i] + cs_[i] * hcol_[i + 1];
        hcol_[i] = t;
      }
      const S denom = std::sqrt(hcol_[j] * hcol_[j] + hj1 * hj1);
      if (static_cast<double>(denom) > 0.0 &&
          std::isfinite(static_cast<double>(denom))) {
        cs_[j] = hcol_[j] / denom;
        sn_[j] = hj1 / denom;
      } else {
        cs_[j] = S{1};
        sn_[j] = S{0};
      }
      hcol_[j] = cs_[j] * hcol_[j] + sn_[j] * hj1;
      g_[j + 1] = -sn_[j] * g_[j];
      g_[j] = cs_[j] * g_[j];
      for (int i = 0; i <= j; ++i) h_[col_major(i, j)] = hcol_[i];

      const double res = std::abs(static_cast<double>(g_[j + 1]));
      const bool breakdown =
          !(static_cast<double>(hj1) > 1e-14 * static_cast<double>(beta));
      if (breakdown || (abs_target > 0.0 && res <= abs_target)) {
        stats.reached_target = res <= abs_target || breakdown;
        ++j;
        break;
      }
      blas::scal(S{1} / hj1, std::span<VT>(w_));
      blas::copy(std::span<const VT>(w_), std::span<VT>(v_[j + 1]));
    }
    stats.iters = std::min(j, m);
    stats.residual_est = std::abs(static_cast<double>(g_[std::min(j, m)]));

    const int k = stats.iters;
    for (int i = k - 1; i >= 0; --i) {
      S s = g_[i];
      for (int l = i + 1; l < k; ++l) s -= h_[col_major(i, l)] * y_[l];
      const S hii = h_[col_major(i, i)];
      y_[i] = (hii != S{0}) ? s / hii : S{0};
    }
    for (int i = 0; i < k; ++i) blas::axpy(y_[i], std::span<const VT>(z_[i]), x);
    return stats;
  }

 private:
  [[nodiscard]] std::size_t col_major(int i, int j) const {
    return static_cast<std::size_t>(j) * (static_cast<std::size_t>(m_dim_) + 1) +
           static_cast<std::size_t>(i);
  }
  Operator<VT>* a_;
  Preconditioner<VT>* m_;
  int m_dim_;
  std::vector<std::vector<VT>> v_, z_;
  std::vector<VT> w_;
  std::vector<S> h_, g_, cs_, sn_, y_, hcol_;
};

template <class VT, class MT>
void fgmres_regression(const CsrMatrix<double>& a64, int m, double rtol,
                       std::uint64_t seed) {
  const auto a = cast_matrix<MT>(a64);
  CsrOperator<MT, VT> op_f(a), op_r(a);
  IdentityPrecond<VT> prec_f(a.nrows), prec_r(a.nrows);

  const auto bd = random_vector<double>(a.nrows, seed, 0.0, 1.0);
  std::vector<VT> b(bd.size());
  for (std::size_t i = 0; i < bd.size(); ++i) b[i] = static_cast<VT>(bd[i]);
  const double target = rtol * static_cast<double>(blas::nrm2(std::span<const VT>(b)));

  std::vector<VT> xf(b.size(), VT{0}), xr(b.size(), VT{0});
  FgmresSolver<VT> fused(op_f, prec_f, {.m = m});
  SeedFgmres<VT> ref(op_r, prec_r, m);
  const auto sf = fused.run(std::span<const VT>(b), std::span<VT>(xf), target, false);
  const auto sr = ref.run(std::span<const VT>(b), std::span<VT>(xr), target, false);

  EXPECT_EQ(sf.iters, sr.iters);
  EXPECT_EQ(sf.reached_target, sr.reached_target);
  if (num_threads() == 1) {
    EXPECT_EQ(sf.residual_est, sr.residual_est);
    for (std::size_t i = 0; i < xf.size(); ++i)
      EXPECT_EQ(static_cast<double>(xf[i]), static_cast<double>(xr[i])) << "i=" << i;
  } else {
    EXPECT_NEAR(sf.residual_est, sr.residual_est,
                1e-6 * (1.0 + std::abs(sr.residual_est)));
  }
}

TEST(FgmresFusedRegression, SpdLaplaceFp64) {
  fgmres_regression<double, double>(test::scaled_laplace2d(12, 12), 60, 1e-10, 2);
}

TEST(FgmresFusedRegression, NonsymmetricConvdiffFp64) {
  fgmres_regression<double, double>(test::scaled_convdiff2d(10, 20.0), 80, 1e-9, 3);
}

TEST(FgmresFusedRegression, Hpcg27PointFp64) {
  fgmres_regression<double, double>(test::scaled_hpcg(3), 40, 1e-8, 4);
}

TEST(FgmresFusedRegression, LaplaceFp32) {
  fgmres_regression<float, float>(test::scaled_laplace2d(10, 10), 50, 1e-5, 5);
}

TEST(FgmresFusedRegression, Fp32SolverOnFp16Matrix) {
  // The F3R level-3 configuration: fp16-stored matrix, fp32 Arnoldi data.
  fgmres_regression<float, half>(test::scaled_laplace2d(10, 10), 40, 1e-3, 6);
}

TEST(FgmresFusedRegression, PureFp16) {
  fgmres_regression<half, half>(test::scaled_laplace2d(8, 8), 20, 1e-2, 7);
}

}  // namespace
}  // namespace nk
