// Tests for block-Jacobi IC(0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "base/rng.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

CsrMatrix<double> spd_tridiag(index_t n, double diag) {
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(diag);
    if (i + 1 < n) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = std::move(cols);
  a.vals = std::move(vals);
  return a;
}

TEST(Ic0, ExactCholeskyOnTridiagonal) {
  // IC(0) on a tridiagonal SPD matrix generates no fill → exact Cholesky.
  const auto a = spd_tridiag(40, 2.5);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 0);
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(40, 1, -1.0, 1.0);
  std::vector<double> z(40), az(40);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < 40; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ic0, FactorsReproduceMatrixOnPattern) {
  // On the tridiagonal pattern L Lᵀ must equal A entrywise.
  const auto a = spd_tridiag(10, 3.0);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  const auto& f = m.factors<double>();
  // Reconstruct (L Lᵀ)_{ij} for stored lower entries and the diagonal.
  auto lentry = [&](index_t i, index_t j) {
    for (index_t p = f.pat->l_row_ptr[i]; p < f.pat->l_row_ptr[i + 1]; ++p)
      if (f.pat->l_col[p] == j) return f.l_val[p];
    return 0.0;
  };
  for (index_t i = 0; i < 10; ++i)
    for (index_t j = std::max<index_t>(0, i - 1); j <= i; ++j) {
      double s = 0.0;
      for (index_t k = 0; k <= j; ++k) s += lentry(i, k) * lentry(j, k);
      EXPECT_NEAR(s, a.at(i, j), 1e-12) << "(" << i << "," << j << ")";
    }
}

TEST(Ic0, SymmetricApplyIsSymmetric) {
  // M⁻¹ = L⁻ᵀL⁻¹ is symmetric: (M⁻¹u, v) == (u, M⁻¹v).
  auto a = test::laplace2d(12, 12);
  BlockJacobiIc0 m(a, {.nblocks = 3, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto u = random_vector<double>(a.nrows, 4, -1.0, 1.0);
  const auto v = random_vector<double>(a.nrows, 5, -1.0, 1.0);
  std::vector<double> mu(a.nrows), mv(a.nrows);
  h->apply(std::span<const double>(u), std::span<double>(mu));
  h->apply(std::span<const double>(v), std::span<double>(mv));
  const double lhs = blas::dot(std::span<const double>(mu), std::span<const double>(v));
  const double rhs = blas::dot(std::span<const double>(u), std::span<const double>(mv));
  EXPECT_NEAR(lhs, rhs, 1e-10 * std::abs(lhs));
}

TEST(Ic0, PositiveDefiniteApply) {
  // (r, M⁻¹ r) > 0 for any nonzero r.
  auto a = test::scaled_hpcg(3);
  BlockJacobiIc0 m(a, {.nblocks = 4, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto r = random_vector<double>(a.nrows, seed, -1.0, 1.0);
    std::vector<double> z(a.nrows);
    h->apply(r, std::span<double>(z));
    EXPECT_GT(blas::dot(std::span<const double>(r), std::span<const double>(z)), 0.0);
  }
}

TEST(Ic0, BreakdownClampedOnIndefiniteMatrix) {
  // An indefinite diagonal breaks IC(0); pivots are clamped and counted.
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  a.vals = {1.0, -1.0};
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 1);
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {1.0, 1.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_TRUE(std::isfinite(z[0]));
  EXPECT_TRUE(std::isfinite(z[1]));
}

TEST(Ic0, AlphaReducesBreakdowns) {
  // A nearly-indefinite SPD-ish matrix: boosting the diagonal during
  // factorization (the paper's α technique) avoids pivot clamps.
  CsrMatrix<double> a(3, 3);
  a.row_ptr = {0, 3, 6, 9};
  a.col_idx = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  a.vals = {1.0, -0.9, -0.9, -0.9, 1.0, -0.9, -0.9, -0.9, 1.0};
  BlockJacobiIc0 plain(a, {.nblocks = 1, .alpha = 1.0});
  BlockJacobiIc0 boosted(a, {.nblocks = 1, .alpha = 2.5});
  EXPECT_GT(plain.breakdowns(), 0);
  EXPECT_EQ(boosted.breakdowns(), 0);
}

TEST(Ic0, CastHandlesAgree) {
  auto a = test::scaled_laplace2d(10, 10);
  BlockJacobiIc0 m(a, {.nblocks = 2, .alpha = 1.0});
  const auto r = random_vector<double>(a.nrows, 9, 0.0, 1.0);
  std::vector<double> z64(a.nrows), z16(a.nrows);
  m.make_apply_fp64(Prec::FP64)->apply(r, std::span<double>(z64));
  m.make_apply_fp64(Prec::FP16)->apply(r, std::span<double>(z16));
  const double ref = blas::nrm_inf(std::span<const double>(z64));
  for (index_t i = 0; i < a.nrows; ++i) EXPECT_NEAR(z16[i], z64[i], 0.05 * ref);
}

TEST(Ic0, InvocationCounting) {
  const auto a = spd_tridiag(8, 3.0);
  BlockJacobiIc0 m(a, {.nblocks = 1, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r(8, 1.0), z(8);
  for (int i = 0; i < 5; ++i) h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_EQ(m.invocations(), 5u);
}

TEST(Ic0, RejectsNonSquare) {
  CsrMatrix<double> a(2, 3);
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(BlockJacobiIc0(a, {}), std::invalid_argument);
}

/// ic_solve at storage P and vectors VT against the same substitution in
/// long double over the same stored factors and rounded right-hand side,
/// within the tier of the working precision W.
template <class P, class VT>
void check_ic_solve_against_long_double(const CsrMatrix<double>& a, int nblocks) {
  BlockJacobiIc0 m(a, {.nblocks = nblocks, .alpha = 1.0});
  const auto& f = m.factors<P>();
  const auto rd = random_vector<double>(a.nrows, 14, -1.0, 1.0);
  std::vector<VT> r(rd.size()), z(rd.size());
  for (std::size_t i = 0; i < rd.size(); ++i) r[i] = static_cast<VT>(rd[i]);
  ic_solve(f, std::span<const VT>(r), std::span<VT>(z));

  std::vector<long double> ref(rd.size());
  for (index_t b = 0; b < f.nblocks(); ++b) {
    const index_t b0 = f.pat->block_start[b], b1 = f.pat->block_start[b + 1];
    for (index_t i = b0; i < b1; ++i) {
      long double s = static_cast<long double>(r[i]);
      const index_t end = f.pat->l_row_ptr[i + 1] - 1;
      for (index_t p = f.pat->l_row_ptr[i]; p < end; ++p)
        s -= static_cast<long double>(f.l_val[p]) * ref[f.pat->l_col[p]];
      ref[i] = s / static_cast<long double>(f.l_val[end]);
    }
    for (index_t i = b1; i-- > b0;) {
      long double s = ref[i];
      const index_t begin = f.pat->lt_row_ptr[i];
      for (index_t p = begin + 1; p < f.pat->lt_row_ptr[i + 1]; ++p)
        s -= static_cast<long double>(f.lt_val[p]) * ref[f.pat->lt_col[p]];
      ref[i] = s / static_cast<long double>(f.lt_val[begin]);
    }
  }
  long double zmax = 0.0L;
  for (const long double v : ref) zmax = std::max(zmax, std::abs(v));
  using W = promote_t<P, VT>;
  const double tier = std::is_same_v<W, double>  ? 1e-12
                      : std::is_same_v<W, float> ? 2e-5
                                                 : 3e-2;
  for (index_t i = 0; i < a.nrows; ++i)
    ASSERT_NEAR(static_cast<double>(z[i]), static_cast<double>(ref[i]),
                tier * static_cast<double>(zmax))
        << "i=" << i;
}

TEST(Ic0, SolveMatchesLongDoubleSubstitution) {
  for (const auto& a : {test::scaled_hpcg(3), test::scaled_laplace2d(20, 20)}) {
    check_ic_solve_against_long_double<double, double>(a, 3);
    check_ic_solve_against_long_double<float, float>(a, 3);
    check_ic_solve_against_long_double<float, double>(a, 3);
    check_ic_solve_against_long_double<half, float>(a, 3);
    check_ic_solve_against_long_double<half, half>(a, 3);  // F3R's innermost case
    check_ic_solve_against_long_double<half, double>(a, 3);
  }
}

}  // namespace
}  // namespace nk
