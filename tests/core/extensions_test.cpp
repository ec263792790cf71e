// Tests for the extension features: Chebyshev nesting levels, dynamic
// inner termination, the iterative-refinement baseline, and the new
// primary preconditioners driven through the full nested stack.
#include <gtest/gtest.h>

#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "krylov/fgmres.hpp"
#include "precond/neumann.hpp"
#include "precond/ssor.hpp"
#include "sparse/gen/laplace.hpp"

namespace nk {
namespace {

TEST(Extensions, ChebyshevInnerLevelSolves) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  NestedConfig cfg = f3r_config(Prec::FP16);
  cfg.name = "F2C-R";
  cfg.levels[2].kind = SolverKind::Chebyshev;  // replace F^4 by C^4
  cfg.levels[2].eig_ratio = 20.0;
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_relres, 1e-8);
  EXPECT_EQ(tuple_notation(cfg), "(F^100, F^8, C^4, R^2, M)");
}

TEST(Extensions, DynamicInnerTerminationSavesWork) {
  // With inner_rtol set, the second-level FGMRES may stop early; the solve
  // must still converge, with no more primary applications than the fixed
  // version (usually fewer on easy problems).
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);

  const auto fixed = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-8),
                             m).solve();
  NestedConfig cfg = f3r_config(Prec::FP16);
  cfg.name = "fp16-F3R-dyn";
  cfg.levels[1].inner_rtol = 0.05;
  cfg.levels[2].inner_rtol = 0.05;
  const auto dyn = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();

  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(dyn.converged);
  EXPECT_LE(dyn.precond_invocations, fixed.precond_invocations * 2);
}

TEST(Extensions, InnerRtolStopsEarlyDirectly) {
  // Unit-level check: apply() with inner_rtol on an easy system performs
  // fewer Arnoldi steps than m.
  auto a = gen::laplace2d(10, 10);
  CsrOperator<double, double> op(a);
  IdentityPrecond<double> ident(a.nrows);
  FgmresSolver<double> strict(op, ident, {.m = 50, .inner_rtol = 0.0});
  FgmresSolver<double> loose(op, ident, {.m = 50, .inner_rtol = 0.5});
  std::vector<double> v(a.nrows, 1.0), z(a.nrows);
  strict.apply(std::span<const double>(v), std::span<double>(z));
  loose.apply(std::span<const double>(v), std::span<double>(z));
  EXPECT_EQ(strict.total_iterations(), 50u);
  EXPECT_LT(loose.total_iterations(), 50u);
}

TEST(Extensions, IterativeRefinementBaselineConverges) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  for (Prec prec : {Prec::FP32, Prec::FP16}) {
    SolverSpec spec = parse_solver_spec("ir-gmres8;max-iters=4000");
    spec.prec = prec;
    const auto res = Session(borrow_problem(p), spec, m).solve();
    EXPECT_TRUE(res.converged) << prec_name(prec);
    EXPECT_LT(res.final_relres, 1e-8) << prec_name(prec);
    EXPECT_EQ(res.solver, std::string(prec_name(prec)) + "-IR-GMRES(8)");
    EXPECT_GT(res.iterations, 0);
  }
}

TEST(Extensions, IrHistoryIsMonotoneUntilConvergence) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  const auto res =
      Session(borrow_problem(p), parse_solver_spec("ir-gmres8@fp32;max-iters=4000"), m)
          .solve();
  ASSERT_TRUE(res.converged);
  ASSERT_GE(res.history.size(), 2u);
  for (std::size_t i = 1; i < res.history.size(); ++i)
    EXPECT_LT(res.history[i], res.history[i - 1]);
}

TEST(Extensions, SsorAsPrimaryOfF3r) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto ssor = std::make_shared<SsorPrecond>(p.a->csr_fp64(),
                                            SsorPrecond::Config{.nblocks = 8, .omega = 1.0});
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-8),
                           std::static_pointer_cast<PrimaryPrecond>(ssor)).solve();
  EXPECT_TRUE(res.converged);
}

TEST(Extensions, NeumannAsPrimaryOfF3r) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto nm = std::make_shared<NeumannPrecond>(p.a->csr_fp64(),
                                             NeumannPrecond::Config{.degree = 2});
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-8),
                           std::static_pointer_cast<PrimaryPrecond>(nm)).solve();
  EXPECT_TRUE(res.converged);
}

TEST(Extensions, ChebyshevTupleNotationTag) {
  NestedConfig cfg;
  LevelSpec outer;
  outer.m = 10;
  LevelSpec cheb;
  cheb.kind = SolverKind::Chebyshev;
  cheb.m = 3;
  cfg.levels = {outer, cheb};
  EXPECT_EQ(tuple_notation(cfg), "(F^10, C^3, M)");
}

}  // namespace
}  // namespace nk
