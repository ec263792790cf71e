// Tests for the truncated Neumann polynomial preconditioner.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "krylov/cg.hpp"
#include "precond/jacobi.hpp"
#include "precond/neumann.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

std::shared_ptr<const CsrMatrix<double>> shared(const CsrMatrix<double>& a) {
  return std::make_shared<const CsrMatrix<double>>(a);
}

TEST(Neumann, DegreeZeroIsJacobi) {
  auto a = test::laplace2d(6, 6);
  NeumannPrecond nm(shared(a), {.degree = 0});
  JacobiPrecond jac(a);
  auto hn = nm.make_apply_fp64(Prec::FP64);
  auto hj = jac.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(a.nrows, 1, 0.0, 1.0);
  std::vector<double> zn(a.nrows), zj(a.nrows);
  hn->apply(r, std::span<double>(zn));
  hj->apply(r, std::span<double>(zj));
  for (index_t i = 0; i < a.nrows; ++i) EXPECT_NEAR(zn[i], zj[i], 1e-14);
}

TEST(Neumann, MatchesExplicitSeriesOnScaledMatrix) {
  // On a diagonally scaled matrix (D = I), degree-2 must equal
  // (I + N + N²) r with N = I − A.
  auto a = test::scaled_laplace2d(5, 5);
  NeumannPrecond nm(shared(a), {.degree = 2});
  auto h = nm.make_apply_fp64(Prec::FP64);
  const auto r = random_vector<double>(a.nrows, 2, -1.0, 1.0);
  std::vector<double> z(a.nrows);
  h->apply(std::span<const double>(r), std::span<double>(z));

  const index_t n = a.nrows;
  std::vector<double> nr(n), nnr(n), ref(n);
  // N r = r − A r
  std::vector<double> ar(n);
  spmv(a, std::span<const double>(r), std::span<double>(ar));
  for (index_t i = 0; i < n; ++i) nr[i] = r[i] - ar[i];
  spmv(a, std::span<const double>(nr), std::span<double>(ar));
  for (index_t i = 0; i < n; ++i) nnr[i] = nr[i] - ar[i];
  for (index_t i = 0; i < n; ++i) ref[i] = r[i] + nr[i] + nnr[i];
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(z[i], ref[i], 1e-12);
}

TEST(Neumann, HigherDegreeImprovesApproximation) {
  auto a = test::scaled_laplace2d(10, 10);
  const auto r = random_vector<double>(a.nrows, 3, 0.0, 1.0);
  double prev = 1e300;
  for (int deg : {0, 1, 2, 4}) {
    NeumannPrecond nm(shared(a), {.degree = deg});
    auto h = nm.make_apply_fp64(Prec::FP64);
    std::vector<double> z(a.nrows), az(a.nrows);
    h->apply(r, std::span<double>(z));
    spmv(a, std::span<const double>(z), std::span<double>(az));
    double err = 0.0;
    for (index_t i = 0; i < a.nrows; ++i) err += (az[i] - r[i]) * (az[i] - r[i]);
    err = std::sqrt(err);
    EXPECT_LT(err, prev) << "degree " << deg;
    prev = err;
  }
}

TEST(Neumann, AcceleratesCg) {
  auto a = test::scaled_laplace2d(20, 20);
  CsrOperator<double, double> op(a);
  const auto b = random_vector<double>(a.nrows, 4, 0.0, 1.0);

  JacobiPrecond jac(a);
  auto hj = jac.make_apply_fp64(Prec::FP64);
  CgSolver<double> cg_j(op, *hj, {.rtol = 1e-8, .max_iters = 5000});
  std::vector<double> x1(a.nrows, 0.0);
  const auto r1 = cg_j.solve(b, std::span<double>(x1));

  NeumannPrecond nm(shared(a), {.degree = 2});
  auto hn = nm.make_apply_fp64(Prec::FP64);
  CgSolver<double> cg_n(op, *hn, {.rtol = 1e-8, .max_iters = 5000});
  std::vector<double> x2(a.nrows, 0.0);
  const auto r2 = cg_n.solve(b, std::span<double>(x2));

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Neumann, Fp16StorageApplyFinite) {
  auto a = test::scaled_laplace2d(8, 8);
  NeumannPrecond nm(shared(a), {.degree = 2});
  auto h = nm.make_apply_fp16(Prec::FP16);
  const auto r = random_vector<half>(a.nrows, 5, 0.0, 1.0);
  std::vector<half> z(a.nrows);
  h->apply(std::span<const half>(r), std::span<half>(z));
  EXPECT_EQ(blas::count_nonfinite(std::span<const half>(z)), 0u);
}

TEST(Neumann, RejectsBadArguments) {
  auto a = test::laplace2d(4, 4);
  EXPECT_THROW(NeumannPrecond(shared(a), {.degree = -1}), std::invalid_argument);
  CsrMatrix<double> rect(2, 3);
  rect.row_ptr = {0, 0, 0};
  EXPECT_THROW(NeumannPrecond(shared(rect), {}), std::invalid_argument);
}

TEST(Neumann, CountsInvocations) {
  auto a = test::laplace2d(4, 4);
  NeumannPrecond nm(shared(a), {.degree = 1});
  auto h = nm.make_apply_fp64(Prec::FP64);
  std::vector<double> r(a.nrows, 1.0), z(a.nrows);
  for (int i = 0; i < 3; ++i) h->apply(std::span<const double>(r), std::span<double>(z));
  EXPECT_EQ(nm.invocations(), 3u);
  EXPECT_EQ(nm.name(), "neumann");
}

}  // namespace
}  // namespace nk
