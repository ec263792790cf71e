// Tests for preconditioned CG.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "base/rng.hpp"
#include "krylov/cg.hpp"
#include "precond/block_jacobi_ic0.hpp"
#include "precond/jacobi.hpp"
#include "sparse/spmv.hpp"
#include "support/problems.hpp"
#include "support/solver_checks.hpp"

namespace nk {
namespace {

TEST(Cg, SolvesLaplacianWithJacobi) {
  auto p = test::make_problem(test::scaled_laplace2d(16, 16), 1);
  CsrOperator<double, double> op(p.a);
  JacobiPrecond jac(p.a);
  auto m = jac.make_apply_fp64(Prec::FP64);
  CgSolver<double> cg(op, *m, {.rtol = 1e-10, .max_iters = 2000});
  const auto res = cg.solve(p.b, std::span<double>(p.x));
  EXPECT_TRUE(test::converged(res));
  EXPECT_TRUE(test::residual_below(p.a, p.x, p.b, 1e-9));
}

TEST(Cg, Ic0PreconditioningReducesIterations) {
  auto p = test::make_problem(test::scaled_hpcg(3), 2);
  CsrOperator<double, double> op(p.a);

  IdentityPrecond<double> ident(p.a.nrows);
  CgSolver<double> plain(op, ident, {.rtol = 1e-8, .max_iters = 5000});
  std::vector<double> x1(p.a.nrows, 0.0);
  const auto r1 = plain.solve(p.b, std::span<double>(x1));

  BlockJacobiIc0 ic(p.a, {.nblocks = 2, .alpha = 1.0});
  auto m = ic.make_apply_fp64(Prec::FP64);
  CgSolver<double> pcg(op, *m, {.rtol = 1e-8, .max_iters = 5000});
  std::vector<double> x2(p.a.nrows, 0.0);
  const auto r2 = pcg.solve(p.b, std::span<double>(x2));

  EXPECT_TRUE(test::converged(r1));
  EXPECT_TRUE(test::converged(r2));
  EXPECT_LT(r2.iterations, r1.iterations);
}

TEST(Cg, HistoryRecordsEveryIteration) {
  auto p = test::make_problem(test::laplace2d(8, 8), 3);
  CsrOperator<double, double> op(p.a);
  IdentityPrecond<double> m(p.a.nrows);
  CgSolver<double> cg(op, m, {.rtol = 1e-8, .max_iters = 500, .record_history = true});
  const auto res = cg.solve(p.b, std::span<double>(p.x));
  EXPECT_TRUE(test::converged(res));
  // history[0] is the initial relres 1.0; one entry per iteration after.
  ASSERT_EQ(static_cast<int>(res.history.size()), res.iterations + 1);
  EXPECT_DOUBLE_EQ(res.history.front(), 1.0);
  EXPECT_LE(res.history.back(), 1e-8);
}

TEST(Cg, IterationCapReportsFailure) {
  auto p = test::make_problem(test::laplace2d(20, 20), 4);
  CsrOperator<double, double> op(p.a);
  IdentityPrecond<double> m(p.a.nrows);
  CgSolver<double> cg(op, m, {.rtol = 1e-14, .max_iters = 3});
  const auto res = cg.solve(p.b, std::span<double>(p.x));
  EXPECT_TRUE(test::not_converged(res));
  EXPECT_EQ(res.iterations, 3);
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  const auto a = test::laplace2d(4, 4);
  CsrOperator<double, double> op(a);
  IdentityPrecond<double> m(a.nrows);
  CgSolver<double> cg(op, m, {});
  std::vector<double> b(a.nrows, 0.0), x(a.nrows, 0.0);
  const auto res = cg.solve(std::span<const double>(b), std::span<double>(x));
  EXPECT_TRUE(test::converged(res));
  EXPECT_EQ(res.iterations, 0);
}

TEST(Cg, NonFiniteRhsFailsAtSiteB) {
  // A poisoned b is retired before its first residual, under the site
  // name BiCGStab uses too.
  const auto a = test::laplace2d(4, 4);
  CsrOperator<double, double> op(a);
  IdentityPrecond<double> m(a.nrows);
  CgSolver<double> cg(op, m, {});
  std::vector<double> b(a.nrows, 1.0), x(a.nrows, 0.0);
  b[5] = std::numeric_limits<double>::quiet_NaN();
  const auto res = cg.solve(std::span<const double>(b), std::span<double>(x));
  EXPECT_EQ(res.status, SolveStatus::kNonFinite);
  EXPECT_EQ(res.failure, "b");
  EXPECT_EQ(res.iterations, 0);
  EXPECT_EQ(op.spmv_count(), 0u);
}

TEST(Cg, WarmStartFromGoodGuess) {
  const auto a = test::laplace2d(10, 10);
  CsrOperator<double, double> op(a);
  IdentityPrecond<double> m(a.nrows);
  const auto xs = random_vector<double>(a.nrows, 5, -1.0, 1.0);
  std::vector<double> b(a.nrows);
  spmv(a, std::span<const double>(xs), std::span<double>(b));

  CgSolver<double> cg(op, m, {.rtol = 1e-10, .max_iters = 1000});
  std::vector<double> cold(a.nrows, 0.0);
  const auto rc = cg.solve(std::span<const double>(b), std::span<double>(cold));
  std::vector<double> warm = xs;  // exact solution as guess
  const auto rw = cg.solve(std::span<const double>(b), std::span<double>(warm));
  EXPECT_TRUE(test::converged(rw));
  EXPECT_LT(rw.iterations, rc.iterations);
}

TEST(Cg, BreakdownOnIndefiniteMatrixDetected) {
  // CG on an indefinite matrix: (p, Ap) can hit 0/negative — the solver
  // must exit without crashing (converged = false or early exit).
  const auto a = test::indefinite_diag2();
  CsrOperator<double, double> op(a);
  IdentityPrecond<double> m(2);
  CgSolver<double> cg(op, m, {.rtol = 1e-12, .max_iters = 50});
  std::vector<double> b = {1.0, 1.0}, x(2, 0.0);
  const auto res = cg.solve(std::span<const double>(b), std::span<double>(x));
  // Diagonal ±1: CG actually solves it in 2 steps or breaks down — either
  // way, no NaNs in x.
  EXPECT_TRUE(test::all_finite(x));
  (void)res;
}

TEST(Cg, Fp16PreconditionerStorageStillConverges) {
  // The paper's fp16-CG: fp64 CG + fp16-stored IC(0).
  auto p = test::make_problem(test::scaled_hpcg(3), 7);
  CsrOperator<double, double> op(p.a);
  BlockJacobiIc0 ic(p.a, {.nblocks = 2, .alpha = 1.0});
  auto m16 = ic.make_apply_fp64(Prec::FP16);
  CgSolver<double> cg(op, *m16, {.rtol = 1e-8, .max_iters = 5000});
  const auto res = cg.solve(p.b, std::span<double>(p.x));
  EXPECT_TRUE(test::converged(res));
  EXPECT_TRUE(test::residual_below(p.a, p.x, p.b, 2e-8));
}

}  // namespace
}  // namespace nk
