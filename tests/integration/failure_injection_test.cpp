// Failure injection: the solvers must degrade gracefully — no crashes, no
// NaN solutions reported as converged — on hostile inputs: fp16 overflow,
// singular matrices, unscaled systems, absurd parameters.
#include <gtest/gtest.h>

#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/random_matrix.hpp"

namespace nk {
namespace {

TEST(FailureInjection, UnscaledHugeValuesOverflowFp16ButAreDetected) {
  // Skip diagonal scaling and feed values ~1e8: the fp16 copy of A becomes
  // ±inf.  fp16-F3R must not report convergence with a garbage solution.
  auto a = gen::laplace2d(12, 12);
  for (auto& v : a.vals) v *= 1e8;
  PreparedProblem p;
  p.name = "unscaled";
  p.symmetric = true;
  p.a = std::make_shared<MultiPrecMatrix>(std::move(a));  // NOTE: no scaling
  p.b.assign(static_cast<std::size_t>(p.a->size()), 1.0);

  auto m = registry().make_precond(parse_precond_spec("jacobi"), p);
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-8),
                           m).solve();
  if (res.converged) {
    EXPECT_LT(res.final_relres, 1e-8);  // honest claim or no claim
  } else {
    SUCCEED();
  }
}

TEST(FailureInjection, SingularMatrixDoesNotCrashAnySolver) {
  CsrMatrix<double> a(16, 16);
  // Row 7 entirely zero; everything else identity.
  for (index_t i = 0; i < 16; ++i) {
    if (i != 7) {
      a.col_idx.push_back(i);
      a.vals.push_back(1.0);
    }
    a.row_ptr[i + 1] = static_cast<index_t>(a.col_idx.size());
  }
  PreparedProblem p;
  p.name = "singular";
  p.symmetric = false;
  p.a = std::make_shared<MultiPrecMatrix>(std::move(a));
  p.b.assign(16, 1.0);

  auto m = registry().make_precond(parse_precond_spec("jacobi"), p);
  EXPECT_NO_THROW({
    const auto r1 = Session(borrow_problem(p), parse_solver_spec("bicgstab@fp64;max-iters=50"),
                            m).solve();
    EXPECT_FALSE(r1.converged);
    const auto r2 = Session(borrow_problem(p), parse_solver_spec("fgmres8@fp64;max-iters=50"),
                            m).solve();
    EXPECT_FALSE(r2.converged);
    Termination t = f3r_termination(1e-8);
    t.max_restarts = 1;
    const auto r3 = Session(borrow_problem(p), f3r_config(Prec::FP16), t, m).solve();
    EXPECT_FALSE(r3.converged);
  });
}

TEST(FailureInjection, HardProblemHitsRestartCapWithoutHanging) {
  // A convection-dominated problem with a weak (Jacobi) preconditioner and
  // a tiny outer space: F3R must stop after max_restarts cycles.
  auto p = prepare_standin("stokes", 1);
  // Deliberately weak preconditioner:
  auto m = registry().make_precond(parse_precond_spec("jacobi"), p);
  F3rParams prm;
  prm.m1 = 4;  // tiny outer space to force restarts
  Termination t;
  t.rtol = 1e-300;  // unreachable: forces the restart path
  t.max_restarts = 2;
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16, prm), t, m).solve();
  EXPECT_FALSE(res.converged);
  EXPECT_LE(res.iterations, 3 * 4);
  // Either all restarts were used or the solve aborted earlier on a
  // non-finite residual (fp16 divergence on this hostile setup) — both are
  // graceful exits.
  EXPECT_LE(res.restarts, 2);
}

TEST(FailureInjection, ZeroRhsAllSolvers) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  std::fill(p.b.begin(), p.b.end(), 0.0);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
  const auto r1 = Session(borrow_problem(p), parse_solver_spec("cg@fp64"), m).solve();
  EXPECT_TRUE(r1.converged);
  EXPECT_EQ(r1.iterations, 0);
  const auto r2 = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(), m).solve();
  EXPECT_TRUE(r2.converged);
}

TEST(FailureInjection, NearSingularPreconditionerPivotsClamped) {
  // random_sparse with dominance < 1 can produce ILU pivot loss; the
  // factorization must survive via pivot replacement.
  gen::RandomOptions o;
  o.n = 400;
  o.dominance = 0.3;
  o.seed = 13;
  auto p = prepare_problem("weak", gen::random_sparse(o), false, 1.0, 1.0, 3);
  EXPECT_NO_THROW({
    auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
    const auto res = Session(borrow_problem(p), parse_solver_spec("bicgstab@fp64;max-iters=200"),
                             m).solve();
    (void)res;  // may or may not converge; must not throw or NaN-crash
  });
}

TEST(FailureInjection, TinyProblems) {
  // n = 1 and n = 2 exercise every boundary in the Arnoldi/Givens logic.
  for (index_t n : {1, 2}) {
    CsrMatrix<double> a(n, n);
    for (index_t i = 0; i < n; ++i) {
      a.col_idx.push_back(i);
      a.vals.push_back(2.0);
      a.row_ptr[i + 1] = i + 1;
    }
    PreparedProblem p;
    p.name = "tiny";
    p.symmetric = true;
    p.a = std::make_shared<MultiPrecMatrix>(std::move(a));
    p.b.assign(static_cast<std::size_t>(n), 1.0);
    auto m = registry().make_precond(parse_precond_spec("jacobi"), p);
    const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(),
                             m).solve();
    EXPECT_TRUE(res.converged) << "n=" << n;
  }
}

TEST(FailureInjection, ManyBlocksExceedingRows) {
  auto p = prepare_problem("s", gen::laplace2d(4, 4), true, 1.0, 1.0, 4);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=1000"), p);  // > n rows
  const auto res = Session(borrow_problem(p), parse_solver_spec("cg@fp64"), m).solve();
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace nk
