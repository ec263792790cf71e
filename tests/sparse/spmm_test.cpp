// Tests for the batched multi-RHS kernels: spmm over CSR and SELL-C
// (sparse/spmm.hpp) and the column kernels dot_cols / axpy_cols /
// axpby_cols (base/blas_block.hpp).  Mirrors blas_block_test's grid:
// edge sizes 0/1/3/4099, every MT/XT precision pair, SELL chunk-remainder
// rows, and a forced multi-thread team re-run registered by CMake with
// OMP_NUM_THREADS=4 + NKRYLOV_PAR_THRESHOLD=0 (the PR 2 scratch-buffer bug
// class: kernels must stay correct when every parallel region really
// forms a team).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "backend/kernels.hpp"
#include "base/blas_block.hpp"
#include "base/rng.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/sell.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

// Edge sizes: empty, single row, sub-chunk, 4k+3 (multiple SELL chunks of
// 32 plus a 3-row remainder slice; also several parallel tiles).
const std::vector<index_t> kSizes = {0, 1, 3, 4099};
const std::vector<int> kCounts = {0, 1, 3, 8};

template <class T>
std::vector<T> typed_random(std::size_t n, std::uint64_t seed) {
  const auto d = random_vector<double>(n, seed, -1.0, 1.0);
  std::vector<T> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<T>(d[i]);
  return out;
}

/// Sorted random test matrix; n = 0 degenerates to the empty matrix
/// (random_sparse itself rejects it).
CsrMatrix<double> test_matrix(index_t n, double nnz_per_row, std::uint64_t seed) {
  if (n == 0) return CsrMatrix<double>(0, 0);
  auto a = gen::random_sparse({.n = n, .avg_nnz_per_row = nnz_per_row, .seed = seed});
  a.sort_rows();
  return a;
}

/// Agreement bound between spmm and per-column spmv over CSR: bitwise for
/// everything except fp16 STORAGE with a wider vector type, where the two
/// loop structures may be FMA-contracted differently by the compiler (see
/// spmm.hpp) — there the bound is fp32-rounding-level.  SELL runs the
/// identical slice sweep on both sides and is always bitwise.
template <class MT, class XT>
double csr_tol(double ref) {
  if constexpr (sizeof(MT) == 2 && !std::is_same_v<MT, XT>)
    return 1e-5 * std::max(1.0, std::abs(ref));
  else
    return 0.0;
}

template <class MT, class XT>
void check_spmm_pair() {
  for (index_t n : kSizes) {
    const auto a64 = test_matrix(n, 6.0, 77);
    const auto a = cast_matrix<MT>(a64);
    const auto s = csr_to_sell(a, 32);
    const auto s8 = csr_to_sell(a, 8);  // remainder rows in the last slice for n=1,3,4099
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<XT>(nn * static_cast<std::size_t>(k), 78);
      std::vector<XT> y(nn * static_cast<std::size_t>(k), XT{9});
      std::vector<XT> yref(nn);

      spmm(a, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
           static_cast<std::ptrdiff_t>(nn), k);
      for (int c = 0; c < k; ++c) {
        spmv(a, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
             std::span<XT>(yref));
        for (std::size_t i = 0; i < nn; ++i) {
          const double ref = static_cast<double>(yref[i]);
          ASSERT_NEAR(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]), ref,
                      (csr_tol<MT, XT>(ref)))
              << "csr n=" << n << " k=" << k << " c=" << c << " i=" << i;
        }
      }

      for (const auto* sm : {&s, &s8}) {
        std::fill(y.begin(), y.end(), XT{9});
        spmm(*sm, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
             static_cast<std::ptrdiff_t>(nn), k);
        for (int c = 0; c < k; ++c) {
          spmv(*sm, std::span<const XT>(x.data() + static_cast<std::size_t>(c) * nn, nn),
               std::span<XT>(yref));
          for (std::size_t i = 0; i < nn; ++i)
            ASSERT_EQ(static_cast<double>(y[static_cast<std::size_t>(c) * nn + i]),
                      static_cast<double>(yref[i]))
                << "sell C=" << sm->chunk << " n=" << n << " k=" << k << " c=" << c
                << " i=" << i;
        }
      }
    }
  }
}

TEST(Spmm, MatchesSpmvPerColumnAllPrecisionPairs) {
  check_spmm_pair<double, double>();
  check_spmm_pair<float, float>();
  check_spmm_pair<half, half>();
  check_spmm_pair<half, float>();  // F3R level 3: fp16 matrix, fp32 vectors
  check_spmm_pair<float, double>();
}

TEST(Spmm, ZeroColumnsIsNoop) {
  auto a = gen::random_sparse({.n = 16, .seed = 5});
  a.sort_rows();
  double sentinel = 123.0;
  spmm(a, &sentinel, 16, &sentinel, 16, 0);
  EXPECT_EQ(sentinel, 123.0);
}

TEST(Spmm, SellChunkRemainderRows) {
  // 4099 = 128·32 + 3: the final slice has 3 real rows and 29 padding
  // lanes; padding must contribute exact zeros for every precision.
  auto a64 = gen::laplace2d(4099, 1);
  a64.sort_rows();
  const auto a16 = cast_matrix<half>(a64);
  const auto s16 = csr_to_sell(a16, 32);
  const std::size_t nn = 4099;
  const int k = 3;
  const auto x = typed_random<float>(nn * k, 90);
  std::vector<float> y(nn * k), yref(nn);
  spmm(s16, x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
       static_cast<std::ptrdiff_t>(nn), k);
  for (int c = 0; c < k; ++c) {
    spmv(s16, std::span<const float>(x.data() + static_cast<std::size_t>(c) * nn, nn),
         std::span<float>(yref));
    for (std::size_t i = 0; i < nn; ++i)
      ASSERT_EQ(y[static_cast<std::size_t>(c) * nn + i], yref[i]) << "c=" << c << " i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Column kernels (blas_block.hpp)
// ---------------------------------------------------------------------------

template <class TX, class TY>
void check_dot_cols() {
  for (index_t n : kSizes) {
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<TX>(nn * static_cast<std::size_t>(k), 60);
      const auto y = typed_random<TY>(nn * static_cast<std::size_t>(k), 61);
      using S = acc_t<promote_t<TX, TY>>;
      std::vector<S> out(static_cast<std::size_t>(k) + 1, S{99});
      blas::dot_cols(x.data(), static_cast<std::ptrdiff_t>(nn), y.data(),
                     static_cast<std::ptrdiff_t>(nn), k, nn, out.data());
      for (int c = 0; c < k; ++c) {
        // blas::dot's order: the serial chain (four-way on fp16) at one
        // thread or below parallel_threshold(), its partial_sums chunks in
        // thread order otherwise — the same at every thread count.
        const S ref = blas::dot(
            std::span<const TX>(x.data() + static_cast<std::size_t>(c) * nn, nn),
            std::span<const TY>(y.data() + static_cast<std::size_t>(c) * nn, nn));
        ASSERT_EQ(static_cast<double>(out[c]), static_cast<double>(ref))
            << "n=" << n << " k=" << k << " c=" << c;
      }
      EXPECT_EQ(static_cast<double>(out[static_cast<std::size_t>(k)]), 99.0);
    }
  }
}

TEST(DotCols, SerialOrderPerColumnAllPrecisionPairs) {
  check_dot_cols<double, double>();
  check_dot_cols<float, float>();
  check_dot_cols<half, half>();
  check_dot_cols<half, float>();
  check_dot_cols<float, double>();
}

template <class TX, class TY>
void check_axpy_cols() {
  using S = acc_t<promote_t<TX, TY>>;
  for (index_t n : kSizes) {
    const std::size_t nn = static_cast<std::size_t>(n);
    for (int k : kCounts) {
      const auto x = typed_random<TX>(nn * static_cast<std::size_t>(k), 62);
      const auto y0 = typed_random<TY>(nn * static_cast<std::size_t>(k), 63);
      std::vector<S> alpha(static_cast<std::size_t>(std::max(k, 1)));
      for (int c = 0; c < k; ++c) alpha[c] = static_cast<S>(0.25 * (c + 1));

      std::vector<TY> fused = y0, ref = y0;
      blas::axpy_cols(alpha.data(), x.data(), static_cast<std::ptrdiff_t>(nn),
                      fused.data(), static_cast<std::ptrdiff_t>(nn), k, nn);
      for (int c = 0; c < k; ++c)
        blas::axpy(alpha[c],
                   std::span<const TX>(x.data() + static_cast<std::size_t>(c) * nn, nn),
                   std::span<TY>(ref.data() + static_cast<std::size_t>(c) * nn, nn));
      for (std::size_t i = 0; i < fused.size(); ++i)
        ASSERT_EQ(static_cast<double>(fused[i]), static_cast<double>(ref[i]))
            << "n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(AxpyCols, BitExactVsPerColumnAxpy) {
  check_axpy_cols<double, double>();
  check_axpy_cols<float, float>();
  check_axpy_cols<half, half>();
  check_axpy_cols<half, float>();
  check_axpy_cols<float, half>();
}

TEST(AxpbyCols, BitExactVsPerColumnAxpby) {
  const std::size_t nn = 4099;
  const int k = 4;
  const auto x = typed_random<double>(nn * k, 64);
  const auto y0 = typed_random<double>(nn * k, 65);
  std::vector<double> alpha = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> beta = {0.5, -0.25, 2.0, 0.0};
  std::vector<double> fused = y0, ref = y0;
  blas::axpby_cols(alpha.data(), x.data(), static_cast<std::ptrdiff_t>(nn), beta.data(),
                   fused.data(), static_cast<std::ptrdiff_t>(nn), k, nn);
  for (int c = 0; c < k; ++c)
    blas::axpby(alpha[c], std::span<const double>(x.data() + c * nn, nn), beta[c],
                std::span<double>(ref.data() + c * nn, nn));
  for (std::size_t i = 0; i < fused.size(); ++i) ASSERT_EQ(fused[i], ref[i]) << i;
}

/// y and z hold the same bits.
template <class T>
void expect_bitwise_equal(const std::vector<T>& y, const std::vector<T>& z, const char* what) {
  ASSERT_EQ(y.size(), z.size());
  EXPECT_EQ(std::memcmp(y.data(), z.data(), y.size() * sizeof(T)), 0) << what;
}

/// spmv / residual / spmm on a value-only copy (values over the fp64
/// matrix's own pattern) against the same calls on a self-contained
/// cast_matrix copy: the kernels must not care which one they read.
template <class MT, class VT>
void check_value_only_copy(const CsrMatrix<double>& a64, Backend be) {
  const auto owner = std::make_shared<const CsrMatrix<double>>(a64);
  const CsrValues<MT> lo = cast_values<MT>(owner, owner->vals);
  const CsrMatrix<MT> full = cast_matrix<MT>(a64);
  ASSERT_EQ(CsrView<MT>(lo).col_idx.data(), owner->col_idx.data());
  const kern::Kernels kx(be);
  const auto n = static_cast<std::size_t>(a64.nrows);
  const int k = 3;
  const auto x = typed_random<VT>(n * k, 11);
  const auto b = typed_random<VT>(n, 12);
  const std::span<const VT> x0(x.data(), n);
  std::vector<VT> y1(n * k), y2(n * k);

  kx.spmv(lo, x0, std::span<VT>(y1.data(), n));
  kx.spmv(full, x0, std::span<VT>(y2.data(), n));
  expect_bitwise_equal(y1, y2, "spmv");

  kx.residual(lo, x0, std::span<const VT>(b), std::span<VT>(y1.data(), n));
  kx.residual(full, x0, std::span<const VT>(b), std::span<VT>(y2.data(), n));
  expect_bitwise_equal(y1, y2, "residual");

  const auto ld = static_cast<std::ptrdiff_t>(n);
  kx.spmm(lo, x.data(), ld, y1.data(), ld, k);
  kx.spmm(full, x.data(), ld, y2.data(), ld, k);
  expect_bitwise_equal(y1, y2, "spmm");
}

TEST(ValueOnlyCopy, KernelsMatchCastMatrixOnHostAndSerial) {
  const auto a = test_matrix(4099, 7.0, 21);
  for (const Backend be : {Backend::kHost, Backend::kSerial}) {
    SCOPED_TRACE(be == Backend::kHost ? "host" : "serial");
    check_value_only_copy<float, float>(a, be);
    check_value_only_copy<half, float>(a, be);
    check_value_only_copy<half, half>(a, be);
  }
}

}  // namespace
}  // namespace nk
