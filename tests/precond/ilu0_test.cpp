// Tests for block-Jacobi ILU(0).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <vector>

#include "base/rng.hpp"
#include "precond/ainv.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/jacobi.hpp"
#include "precond/neumann.hpp"
#include "precond/ssor.hpp"
#include "sparse/gen/random_matrix.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

TEST(BlockStarts, BalancedPartition) {
  const auto s = make_block_starts(10, 3);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.front(), 0);
  EXPECT_EQ(s.back(), 10);
  for (std::size_t b = 1; b < s.size(); ++b) EXPECT_GE(s[b], s[b - 1]);
}

TEST(BlockStarts, MoreBlocksThanRowsClamped) {
  const auto s = make_block_starts(3, 16);
  EXPECT_EQ(s.back(), 3);
  EXPECT_LE(s.size(), 4u);
}

TEST(Ilu0, ExactOnTridiagonalSingleBlock) {
  // ILU(0) on a tridiagonal matrix has no discarded fill: LU is exact, so
  // M⁻¹r solves A z = r to machine precision.
  const index_t n = 50;
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    if (i > 0) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(2.5);
    if (i + 1 < n) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = cols;
  a.vals = vals;

  BlockJacobiIlu0 m(a, {.nblocks = 1, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 0);
  auto h = m.make_apply_fp64(Prec::FP64);

  const auto r = random_vector<double>(n, 2, -1.0, 1.0);
  std::vector<double> z(n), az(n);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ilu0, DiagonalMatrixGivesExactInverse) {
  CsrMatrix<double> a(4, 4);
  a.row_ptr = {0, 1, 2, 3, 4};
  a.col_idx = {0, 1, 2, 3};
  a.vals = {2.0, 4.0, 0.5, -8.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {2, 4, 1, 8}, z(4);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], 1.0);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
  EXPECT_DOUBLE_EQ(z[3], -1.0);
}

TEST(Ilu0, BlocksAreIndependent) {
  // Two decoupled tridiagonal blocks with a 2-block partition must equal
  // per-block exact solves.
  const index_t half_n = 20, n = 2 * half_n;
  CsrMatrix<double> a(n, n);
  std::vector<index_t> cols;
  std::vector<double> vals;
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = i < half_n ? 0 : half_n;
    const index_t hi = i < half_n ? half_n : n;
    if (i > lo) { cols.push_back(i - 1); vals.push_back(-1.0); }
    cols.push_back(i); vals.push_back(3.0);
    if (i + 1 < hi) { cols.push_back(i + 1); vals.push_back(-1.0); }
    a.row_ptr[i + 1] = static_cast<index_t>(cols.size());
  }
  a.col_idx = cols;
  a.vals = vals;

  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(n, 3, -1.0, 1.0);
  std::vector<double> z(n), az(n);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Ilu0, OffBlockEntriesAreDropped) {
  // A dense 2×2-coupled system partitioned into 2 blocks of 1: the
  // preconditioner reduces to diagonal scaling.
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 2, 4};
  a.col_idx = {0, 1, 0, 1};
  a.vals = {4.0, 1.0, 1.0, 4.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {4.0, 8.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 1.0);  // 4/4, coupling ignored
  EXPECT_DOUBLE_EQ(z[1], 2.0);
}

TEST(Ilu0, AlphaBoostsFactorDiagonal) {
  const auto a = gen::hpcg(2, 2, 2);
  BlockJacobiIlu0 m1(a, {.nblocks = 1, .alpha = 1.0});
  BlockJacobiIlu0 m2(a, {.nblocks = 1, .alpha = 2.0});
  // With a doubled diagonal the U factor's diagonal grows, so M⁻¹r shrinks.
  std::vector<double> r(a.nrows, 1.0), z1(a.nrows), z2(a.nrows);
  m1.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z1));
  m2.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z2));
  EXPECT_LT(blas::nrm2(std::span<const double>(z2)), blas::nrm2(std::span<const double>(z1)));
}

TEST(Ilu0, MissingDiagonalInsertedAndCounted) {
  CsrMatrix<double> a(2, 2);
  a.row_ptr = {0, 1, 2};
  a.col_idx = {1, 0};  // no diagonal at all
  a.vals = {1.0, 1.0};
  BlockJacobiIlu0 m(a, {.nblocks = 2, .alpha = 1.0});
  EXPECT_EQ(m.breakdowns(), 2);  // zero pivots replaced by 1
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r = {3.0, 5.0}, z(2);
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_DOUBLE_EQ(z[0], 3.0);
  EXPECT_DOUBLE_EQ(z[1], 5.0);
}

TEST(Ilu0, CastStorageCloseToFp64Apply) {
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  const auto r = random_vector<double>(a.nrows, 5, 0.0, 1.0);
  std::vector<double> z64(a.nrows), z32(a.nrows), z16(a.nrows);
  m.make_apply_fp64(Prec::FP64)->apply(r, std::span<double>(z64));
  m.make_apply_fp64(Prec::FP32)->apply(r, std::span<double>(z32));
  m.make_apply_fp64(Prec::FP16)->apply(r, std::span<double>(z16));
  const double n64 = blas::nrm2(std::span<const double>(z64));
  double e32 = 0.0, e16 = 0.0;
  for (index_t i = 0; i < a.nrows; ++i) {
    e32 = std::max(e32, std::abs(z32[i] - z64[i]));
    e16 = std::max(e16, std::abs(z16[i] - z64[i]));
  }
  EXPECT_LT(e32, 1e-4 * n64);
  EXPECT_LT(e16, 2e-2 * n64);
  EXPECT_GT(e16, 0.0);  // fp16 storage really is coarser
}

TEST(Ilu0, InvocationCounterSharedAcrossHandles) {
  const auto a = gen::hpcg(2, 2, 2);
  BlockJacobiIlu0 m(a, {.nblocks = 1, .alpha = 1.0});
  auto h64 = m.make_apply_fp64(Prec::FP64);
  auto h32 = m.make_apply_fp32(Prec::FP32);
  auto h16 = m.make_apply_fp16(Prec::FP16);
  std::vector<double> r(a.nrows, 1.0), z(a.nrows);
  std::vector<float> rf(a.nrows, 1.0f), zf(a.nrows);
  std::vector<half> rh(a.nrows, static_cast<half>(1.0f)), zh(a.nrows);
  h64->apply(std::span<const double>(r), std::span<double>(z));
  h32->apply(std::span<const float>(rf), std::span<float>(zf));
  h16->apply(std::span<const half>(rh), std::span<half>(zh));
  EXPECT_EQ(m.invocations(), 3u);
  m.reset_invocations();
  EXPECT_EQ(m.invocations(), 0u);
}

/// Mints handles of every vector precision over storage P, twice over, and
/// checks that factors<P>() names one copy throughout: the ladder casts
/// each storage copy once, however many handles draw on it.
template <class P, class M>
void check_ladder_rung(M& m) {
  const auto mint_all = [&m] {
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(m.template make_apply<double>(prec_of<P>())->size(), m.size());
      EXPECT_EQ(m.template make_apply<float>(prec_of<P>())->size(), m.size());
      EXPECT_EQ(m.template make_apply<half>(prec_of<P>())->size(), m.size());
    }
  };
  mint_all();
  const auto* first = &m.template factors<P>();
  mint_all();
  EXPECT_EQ(&m.template factors<P>(), first) << m.name() << " @ " << prec_name(prec_of<P>());
}

template <class M>
void check_ladder(M& m) {
  check_ladder_rung<double>(m);
  check_ladder_rung<float>(m);
  check_ladder_rung<half>(m);
}

TEST(PrecLadder, EveryPrimaryMintsEachStorageCopyOnce) {
  const auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 ilu(a, {.nblocks = 3, .alpha = 1.0});
  BlockJacobiIc0 ic(a, {.nblocks = 3, .alpha = 1.0});
  SsorPrecond ssor(a, {.nblocks = 3, .omega = 1.2});
  JacobiPrecond jac(a);
  const auto a64 = std::make_shared<const CsrMatrix<double>>(a);
  NeumannPrecond neu(a64, {.degree = 2});
  SdAinv ainv(a, {.symmetric = true});
  check_ladder(ilu);
  check_ladder(ic);
  check_ladder(ssor);
  check_ladder(jac);
  check_ladder(neu);
  check_ladder(ainv);

  // The fp32/fp16 copies of the pattern-based factors are values only.
  EXPECT_EQ(ilu.factors<float>().pat, ilu.factors<double>().pat);
  EXPECT_EQ(ilu.factors<half>().pat, ilu.factors<double>().pat);
  EXPECT_EQ(ic.factors<float>().pat, ic.factors<double>().pat);
  EXPECT_EQ(ic.factors<half>().pat, ic.factors<double>().pat);
  EXPECT_EQ(ssor.factors<float>().pat, ssor.factors<double>().pat);
  EXPECT_EQ(ssor.factors<half>().pat, ssor.factors<double>().pat);
  // neumann holds A itself: the fp64 apply reads A's own values, and the
  // fp32/fp16 copies are values over A's pattern.
  EXPECT_EQ(neu.factors<double>().matrix().vals.data(), a64->vals.data());
  EXPECT_EQ(neu.factors<float>().a, a64);
  EXPECT_EQ(neu.factors<half>().a, a64);
  EXPECT_EQ(ainv.factors<float>().wt.pat, ainv.factors<double>().wt.pat);
  EXPECT_EQ(ainv.factors<half>().wt.pat, ainv.factors<double>().wt.pat);
  EXPECT_EQ(ainv.factors<float>().z.pat, ainv.factors<double>().z.pat);
  EXPECT_EQ(ainv.factors<half>().z.pat, ainv.factors<double>().z.pat);
}

TEST(Ilu0, RejectsNonSquare) {
  CsrMatrix<double> a(2, 3);
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(BlockJacobiIlu0(a, {}), std::invalid_argument);
}

TEST(Ilu0, Fp16VectorApplyStaysFinite) {
  auto a = test::scaled_hpcg(3);
  BlockJacobiIlu0 m(a, {.nblocks = 4, .alpha = 1.0});
  auto h = m.make_apply_fp16(Prec::FP16);
  const auto r = random_vector<half>(a.nrows, 6, 0.0, 1.0);
  std::vector<half> z(a.nrows);
  h->apply(std::span<const half>(r), std::span<half>(z));
  EXPECT_EQ(blas::count_nonfinite(std::span<const half>(z)), 0u);
}

/// ilu_solve at storage P and vectors VT against the same substitution in
/// long double over the same stored factors and rounded right-hand side,
/// within the tier of the working precision W.
template <class P, class VT>
void check_ilu_solve_against_long_double(const CsrMatrix<double>& a, int nblocks) {
  BlockJacobiIlu0 m(a, {.nblocks = nblocks, .alpha = 1.0});
  const auto& f = m.factors<P>();
  const auto rd = random_vector<double>(a.nrows, 12, -1.0, 1.0);
  std::vector<VT> r(rd.size()), z(rd.size());
  for (std::size_t i = 0; i < rd.size(); ++i) r[i] = static_cast<VT>(rd[i]);
  ilu_solve(f, std::span<const VT>(r), std::span<VT>(z));

  std::vector<long double> ref(rd.size());
  for (index_t b = 0; b < f.nblocks(); ++b) {
    const index_t b0 = f.pat->block_start[b], b1 = f.pat->block_start[b + 1];
    for (index_t i = b0; i < b1; ++i) {
      long double s = static_cast<long double>(r[i]);
      for (index_t p = f.pat->row_ptr[i]; p < f.pat->diag_pos[i]; ++p)
        s -= static_cast<long double>(f.vals[p]) * ref[f.pat->col_idx[p]];
      ref[i] = s;
    }
    for (index_t i = b1; i-- > b0;) {
      long double s = ref[i];
      for (index_t p = f.pat->diag_pos[i] + 1; p < f.pat->row_ptr[i + 1]; ++p)
        s -= static_cast<long double>(f.vals[p]) * ref[f.pat->col_idx[p]];
      ref[i] = s / static_cast<long double>(f.vals[f.pat->diag_pos[i]]);
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

TEST(Ilu0, SolveMatchesLongDoubleSubstitution) {
  for (const auto& a : {test::scaled_hpcg(3), test::scaled_convdiff2d(20, 30.0)}) {
    check_ilu_solve_against_long_double<double, double>(a, 3);
    check_ilu_solve_against_long_double<float, float>(a, 3);
    check_ilu_solve_against_long_double<float, double>(a, 3);
    check_ilu_solve_against_long_double<half, float>(a, 3);
    check_ilu_solve_against_long_double<half, half>(a, 3);
    check_ilu_solve_against_long_double<half, double>(a, 3);
  }
}

/// ilu_solve_many applies each column in ilu_solve's operation order, so
/// batched and sequential applications agree bit for bit at every width.
template <class P, class VT>
void check_solve_many_bitwise(const CsrMatrix<double>& a) {
  BlockJacobiIlu0 m(a, {.nblocks = 3, .alpha = 1.0});
  const auto& f = m.factors<P>();
  const auto n = static_cast<std::size_t>(a.nrows);
  for (const int k : {1, 3, 8, 16}) {
    const auto rd = random_vector<double>(n * static_cast<std::size_t>(k), 13, -1.0, 1.0);
    std::vector<VT> r(rd.size()), z(rd.size()), zc(n);
    for (std::size_t i = 0; i < rd.size(); ++i) r[i] = static_cast<VT>(rd[i]);
    const auto ld = static_cast<std::ptrdiff_t>(n);
    ilu_solve_many(f, r.data(), ld, z.data(), ld, k);
    for (int c = 0; c < k; ++c) {
      const std::size_t off = static_cast<std::size_t>(c) * n;
      ilu_solve(f, std::span<const VT>(r.data() + off, n), std::span<VT>(zc));
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(std::memcmp(&z[off + i], &zc[i], sizeof(VT)), 0)
            << "k=" << k << " c=" << c << " i=" << i;
    }
  }
}

TEST(Ilu0, SolveManyMatchesSolveBitwise) {
  const auto a = test::scaled_convdiff2d(20, 30.0);
  check_solve_many_bitwise<double, double>(a);
  check_solve_many_bitwise<float, float>(a);
  check_solve_many_bitwise<half, float>(a);
  check_solve_many_bitwise<half, half>(a);
}

}  // namespace
}  // namespace nk
