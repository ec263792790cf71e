// Tests for the SD-AINV approximate inverse.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "precond/ainv.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

double apply_and_residual(const CsrMatrix<double>& a, PrimaryPrecond& m,
                          std::uint64_t seed = 1) {
  auto h = m.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(a.nrows, seed, -1.0, 1.0);
  std::vector<double> z(a.nrows), az(a.nrows);
  h->apply(r, std::span<double>(z));
  spmv(a, std::span<const double>(z), std::span<double>(az));
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < a.nrows; ++i) {
    num += (az[i] - r[i]) * (az[i] - r[i]);
    den += r[i] * r[i];
  }
  return std::sqrt(num / den);  // ‖A M⁻¹ r − r‖ / ‖r‖
}

TEST(Ainv, ExactOnDiagonalMatrix) {
  CsrMatrix<double> a(4, 4);
  a.row_ptr = {0, 1, 2, 3, 4};
  a.col_idx = {0, 1, 2, 3};
  a.vals = {2.0, 4.0, 0.5, 8.0};
  SdAinv m(a, {.symmetric = true});
  EXPECT_LT(apply_and_residual(a, m), 1e-12);
  EXPECT_EQ(m.clamped_pivots(), 0);
}

TEST(Ainv, NoDropGivesExactInverseSmallSpd) {
  // With drop tolerance 0 and unlimited fill, biconjugation is exact.
  auto a = test::scaled_laplace2d(5, 5);
  SdAinv m(a, {.drop_tol = 0.0, .max_fill = 0, .symmetric = true});
  EXPECT_LT(apply_and_residual(a, m), 1e-8);
}

TEST(Ainv, NoDropGivesExactInverseSmallNonsym) {
  auto a = test::scaled_convdiff2d(5, 3.0);
  SdAinv m(a, {.drop_tol = 0.0, .max_fill = 0, .symmetric = false});
  EXPECT_LT(apply_and_residual(a, m), 1e-8);
}

TEST(Ainv, DroppedVersionStillReducesResidual) {
  auto a = test::scaled_laplace2d(16, 16);
  SdAinv m(a, {.drop_tol = 0.1, .max_fill = 10, .symmetric = true});
  // Approximate inverse: A·M⁻¹r should be much closer to r than 0 is
  // (relative residual < 1 means M is better than identity scaling-wise).
  EXPECT_LT(apply_and_residual(a, m), 0.9);
}

TEST(Ainv, ApplyCostsExactlyTwoSpmvEquivalents) {
  // Structure check: Wᵀ and Z each have ≥ n entries (unit diagonals) and
  // the handle performs spmv(wt) + diag + spmv(z); we verify fill is
  // bounded by the max_fill cap.
  auto a = test::scaled_laplace2d(12, 12);
  SdAinv m(a, {.drop_tol = 0.1, .max_fill = 5, .symmetric = true});
  const auto& f = m.factors<double>();
  EXPECT_EQ(f.n, a.nrows);
  EXPECT_LE(f.wt.nnz(), a.nrows * 6);  // ≤ max_fill+1 per column
  EXPECT_LE(f.z.nnz(), a.nrows * 6);
  EXPECT_GE(f.wt.nnz(), a.nrows);      // diagonal always kept
}

TEST(Ainv, SymmetricModeSharesFactors) {
  auto a = test::scaled_laplace2d(8, 8);
  SdAinv m(a, {.drop_tol = 0.05, .max_fill = 8, .symmetric = true});
  const auto& f = m.factors<double>();
  // W = Z → Wᵀ must equal Zᵀ: compare via transpose(z).
  CsrMatrix<double> z;
  static_cast<CsrPattern&>(z) = *f.z.pat;
  z.vals = f.z.vals;
  const auto zt = transpose(z);
  ASSERT_EQ(zt.nnz(), f.wt.nnz());
  EXPECT_EQ(zt.col_idx, f.wt.pat->col_idx);
  for (std::size_t k = 0; k < zt.vals.size(); ++k)
    EXPECT_DOUBLE_EQ(zt.vals[k], f.wt.vals[k]);
}

TEST(Ainv, AlphaBoostChangesFactors) {
  auto a = test::scaled_laplace2d(8, 8);
  SdAinv m1(a, {.alpha = 1.0, .symmetric = true});
  SdAinv m2(a, {.alpha = 1.5, .symmetric = true});
  // Boosted construction yields smaller |M⁻¹| (more diagonally dominant).
  std::vector<double> r(a.nrows, 1.0), z1(a.nrows), z2(a.nrows);
  m1.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z1));
  m2.make_apply_fp64(Prec::FP64)->apply(std::span<const double>(r), std::span<double>(z2));
  EXPECT_LT(blas::nrm2(std::span<const double>(z2)), blas::nrm2(std::span<const double>(z1)));
}

TEST(Ainv, PivotClampOnSingularMatrix) {
  // A matrix with a zero row/column forces a pivot clamp instead of a crash.
  CsrMatrix<double> a(3, 3);
  a.row_ptr = {0, 1, 1, 2};  // row 1 empty
  a.col_idx = {0, 2};
  a.vals = {1.0, 1.0};
  SdAinv m(a, {.symmetric = false});
  EXPECT_GT(m.clamped_pivots(), 0);
}

TEST(Ainv, CastHandles) {
  auto a = test::scaled_laplace2d(10, 10);
  SdAinv m(a, {.symmetric = true});
  const auto r = random_vector<double>(a.nrows, 3, 0.0, 1.0);
  std::vector<double> z64(a.nrows), z16(a.nrows);
  m.make_apply_fp64(Prec::FP64)->apply(r, std::span<double>(z64));
  m.make_apply_fp64(Prec::FP16)->apply(r, std::span<double>(z16));
  const double ref = blas::nrm_inf(std::span<const double>(z64)) + 1e-12;
  for (index_t i = 0; i < a.nrows; ++i) EXPECT_NEAR(z16[i], z64[i], 0.05 * ref);
}

TEST(Ainv, Fp16HandleApplyOnHalfVectors) {
  auto a = test::scaled_laplace2d(10, 10);
  SdAinv m(a, {.symmetric = true});
  auto h = m.make_apply_fp16(Prec::FP16);
  const auto r = random_vector<half>(a.nrows, 4, 0.0, 1.0);
  std::vector<half> z(a.nrows);
  h->apply(std::span<const half>(r), std::span<half>(z));
  EXPECT_EQ(blas::count_nonfinite(std::span<const half>(z)), 0u);
}

TEST(Ainv, InvocationCounting) {
  auto a = test::laplace2d(6, 6);
  SdAinv m(a, {.symmetric = true});
  auto h = m.make_apply_fp64(Prec::FP64);
  std::vector<double> r(a.nrows, 1.0), z(a.nrows);
  h->apply(std::span<const double>(r), std::span<double>(z));
  h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_EQ(m.invocations(), 2u);
}

TEST(Ainv, RejectsNonSquare) {
  CsrMatrix<double> a(2, 3);
  a.row_ptr = {0, 0, 0};
  EXPECT_THROW(SdAinv(a, {}), std::invalid_argument);
}

}  // namespace
}  // namespace nk
