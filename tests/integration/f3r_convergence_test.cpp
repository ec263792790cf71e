// Integration tests of the paper's central convergence claims:
//   * reducing precision inside F3R does not slow convergence (Table 3:
//     iteration-count differences within ~9%);
//   * the innermost solver performs m2·m3·m4 primary-preconditioner
//     applications per outermost iteration;
//   * Assumption (ii): (F^m3, R^2, M) ≈ (F^m3, F^2, M) in convergence.
#include <gtest/gtest.h>

#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/variants.hpp"
#include "support/solver_checks.hpp"

namespace nk {
namespace {

/// One solve of p's own RHS through a nested tuple under the paper's
/// default termination.
SolveResult nested(const PreparedProblem& p, const NestedConfig& cfg,
                   std::shared_ptr<PrimaryPrecond> m) {
  return Session(borrow_problem(p), cfg, f3r_termination(), std::move(m)).solve();
}

TEST(F3rConvergence, PrecisionDoesNotChangeIterationCounts) {
  // The paper's Table 3: fp64/fp32/fp16-F3R invocation counts agree within
  // a few percent.  At test scale the counts are quantized to whole
  // outermost iterations (64 M-applies each), so we weaken the
  // preconditioner (64 blocks) to get enough outer iterations for the
  // comparison to be meaningful, and allow one extra outer iteration.
  for (const char* name : {"hpcg_4_4_4", "hpgmp_4_4_4"}) {
    auto p = prepare_standin(name, 1);
    auto m = registry().make_precond(parse_precond_spec("bj;nblocks=64"), p);
    const auto r64 = nested(p, f3r_config(Prec::FP64), m);
    const auto r32 = nested(p, f3r_config(Prec::FP32), m);
    const auto r16 = nested(p, f3r_config(Prec::FP16), m);
    ASSERT_TRUE(test::converged(r64)) << name;
    ASSERT_TRUE(test::converged(r32)) << name;
    ASSERT_TRUE(test::converged(r16)) << name;
    EXPECT_LE(std::abs(static_cast<double>(r32.iterations) - r64.iterations), 1.0) << name;
    EXPECT_LE(std::abs(static_cast<double>(r16.iterations) - r64.iterations), 1.0) << name;
  }
}

TEST(F3rConvergence, InvocationsPerOuterIterationIsM2M3M4) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  F3rParams prm;  // 8·4·2 = 64
  const auto res = nested(p, f3r_config(Prec::FP16, prm), m);
  ASSERT_TRUE(test::converged(res));
  EXPECT_EQ(res.precond_invocations,
            static_cast<std::uint64_t>(res.iterations) * 64u);

  prm.m2 = 6;
  prm.m3 = 3;
  prm.m4 = 1;  // 18 per outer iteration
  const auto res2 = nested(p, f3r_config(Prec::FP16, prm), m);
  ASSERT_TRUE(test::converged(res2));
  EXPECT_EQ(res2.precond_invocations,
            static_cast<std::uint64_t>(res2.iterations) * 18u);
}

TEST(F3rConvergence, AssumptionIiRichardsonVsInnerFgmres) {
  // F4 replaces the innermost R^2 with F^2; Section 6.2 finds similar
  // convergence ("the convergence rates of F4 and fp16-F3R were similar").
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  const auto f3r = nested(p, f3r_config(Prec::FP16), m);
  const auto f4 = nested(p, variant_config("F4"), m);
  ASSERT_TRUE(test::converged(f3r));
  ASSERT_TRUE(test::converged(f4));
  const double ratio = static_cast<double>(f3r.precond_invocations) /
                       static_cast<double>(f4.precond_invocations);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(F3rConvergence, DeeperNestingStillConverges) {
  // Five levels: (F^50, F^8, F^4, F^2, R^2, M) — the framework "naturally
  // extends to deeper levels of nesting" (Section 3).
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);
  NestedConfig cfg = f3r_config(Prec::FP16);
  cfg.name = "F4R";
  LevelSpec extra;
  extra.kind = SolverKind::FGMRES;
  extra.m = 2;
  extra.mat = Prec::FP16;
  extra.vec = Prec::FP32;
  cfg.levels.insert(cfg.levels.begin() + 3, extra);
  cfg.levels[0].m = 50;
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(test::converged(res));
}

TEST(F3rConvergence, AdaptiveWeightBeatsBadFixedWeight) {
  // Section 6.3: the adaptive technique is stable where bad static weights
  // fail or lag.  With a deliberately bad fixed ω = 0.3 the solve needs
  // more outer iterations than the adaptive run.
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=8"), p);

  F3rParams adaptive;  // default c = 64
  const auto ra = nested(p, f3r_config(Prec::FP16, adaptive), m);

  F3rParams fixed;
  fixed.adaptive = false;
  fixed.fixed_weight = 0.3f;
  const auto rf = nested(p, f3r_config(Prec::FP16, fixed), m);

  ASSERT_TRUE(test::converged(ra));
  if (rf.converged) {
    EXPECT_LE(ra.precond_invocations, rf.precond_invocations);
  }
}

TEST(F3rConvergence, SellAndCsrGiveSameIterationCounts) {
  // Storage format must not affect convergence, only kernels.
  auto pc = prepare_standin("hpgmp_4_4_4", 1, 7, false);
  auto ps = prepare_standin("hpgmp_4_4_4", 1, 7, true);
  auto mc = registry().make_precond(parse_precond_spec("sd-ainv"), pc);
  auto ms = registry().make_precond(parse_precond_spec("sd-ainv"), ps);
  const auto rc = nested(pc, f3r_config(Prec::FP32), mc);
  const auto rs = nested(ps, f3r_config(Prec::FP32), ms);
  ASSERT_TRUE(test::converged(rc));
  ASSERT_TRUE(test::converged(rs));
  EXPECT_EQ(rc.iterations, rs.iterations);
  EXPECT_EQ(rc.precond_invocations, rs.precond_invocations);
}

}  // namespace
}  // namespace nk
