// Tests for the experiment front half shared by benches and examples:
// problem preparation, the registry's primary-preconditioner choice, flat
// solver reporting through Session, and the fp16-F3R-best search.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/cost_model.hpp"
#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "sparse/gen/laplace.hpp"

namespace nk {
namespace {

std::shared_ptr<PrimaryPrecond> precond(const PreparedProblem& p, const std::string& spec) {
  return registry().make_precond(parse_precond_spec(spec), p);
}

SolveResult solve(const PreparedProblem& p, const std::string& spec,
                  std::shared_ptr<PrimaryPrecond> m) {
  return Session(borrow_problem(p), parse_solver_spec(spec), std::move(m)).solve();
}

TEST(Runner, PrepareProblemScalesAndBuildsRhs) {
  auto p = prepare_problem("t", gen::laplace2d(8, 8), true, 1.2, 1.3, 42);
  EXPECT_EQ(p.name, "t");
  EXPECT_TRUE(p.symmetric);
  EXPECT_DOUBLE_EQ(p.alpha_ilu, 1.2);
  EXPECT_DOUBLE_EQ(p.alpha_ainv, 1.3);
  EXPECT_EQ(p.b.size(), static_cast<std::size_t>(p.a->size()));
  // Diagonal scaling leaves a unit diagonal.
  for (double d : p.a->csr_fp64().diagonal()) EXPECT_NEAR(d, 1.0, 1e-14);
  // RHS in [0,1) (the paper's distribution).
  for (double v : p.b) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Runner, PrepareStandinByName) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  EXPECT_EQ(p.name, "hpcg_4_4_4");
  EXPECT_TRUE(p.symmetric);
  EXPECT_EQ(p.a->size(), 4096);
}

TEST(Runner, MakePrimarySelectsIcForSymmetric) {
  auto psym = prepare_problem("s", gen::laplace2d(8, 8), true, 1.0, 1.0, 1);
  EXPECT_EQ(precond(psym, "bj")->name(), "bj-ic0");
  auto pnon = prepare_problem("n", gen::laplace2d(8, 8), false, 1.0, 1.0, 1);
  EXPECT_EQ(precond(pnon, "bj")->name(), "bj-ilu0");
  EXPECT_EQ(precond(psym, "sd-ainv")->name(), "sd-ainv");
  EXPECT_EQ(precond(psym, "jacobi")->name(), "jacobi");
}

TEST(Runner, CgReportsAccurateMetadata) {
  auto p = prepare_problem("s", gen::laplace2d(12, 12), true, 1.0, 1.0, 2);
  auto m = precond(p, "bj;nblocks=2");
  const auto res = solve(p, "cg@fp64", m);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.solver, "fp64-CG");
  EXPECT_LT(res.final_relres, 1.5e-8);
  // CG applies M once before the loop and once per iteration except the
  // final (converged) one: total equals the iteration count.
  EXPECT_EQ(res.precond_invocations, static_cast<std::uint64_t>(res.iterations));
  EXPECT_GT(res.seconds, 0.0);
}

TEST(Runner, BicgstabNamesFollowStoragePrecision) {
  auto p = prepare_problem("n", gen::laplace2d(12, 12), false, 1.0, 1.0, 3);
  auto m = precond(p, "bj;nblocks=2");
  const auto r16 = solve(p, "bicgstab@fp16", m);
  EXPECT_EQ(r16.solver, "fp16-BiCGStab");
  EXPECT_TRUE(r16.converged);
}

TEST(Runner, FgmresRestartedConverges) {
  auto p = prepare_problem("s", gen::laplace2d(12, 12), true, 1.0, 1.0, 4);
  auto m = precond(p, "bj;nblocks=2");
  const auto res = solve(p, "fgmres16@fp32", m);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.solver, "fp32-FGMRES(16)");
  EXPECT_EQ(res.precond_invocations, static_cast<std::uint64_t>(res.iterations));
}

TEST(Runner, FlatCapsRespected) {
  auto p = prepare_problem("s", gen::laplace2d(16, 16), true, 1.0, 1.0, 5);
  auto m = precond(p, "jacobi");
  const auto res = solve(p, "cg@fp64;max-iters=4", m);  // far too few
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 4);
}

TEST(Runner, AllSolversAgreeOnSolutionQuality) {
  auto p = prepare_problem("s", gen::laplace2d(12, 12), true, 1.0, 1.0, 6);
  auto m = precond(p, "bj;nblocks=2");
  const auto cg = solve(p, "cg@fp64", m);
  const auto fg = solve(p, "fgmres32@fp64", m);
  const auto f3r = solve(p, "f3r@fp16", m);
  for (const auto* r : {&cg, &fg, &f3r}) {
    EXPECT_TRUE(r->converged) << r->solver;
    EXPECT_LT(r->final_relres, 1.5e-8) << r->solver;
  }
}

TEST(Runner, F3rBestSearchReturnsConvergedConfig) {
  auto p = prepare_problem("s", gen::laplace2d(10, 10), true, 1.0, 1.0, 7);
  auto m = precond(p, "bj;nblocks=2");
  const auto best = run_f3r_best(p, m, 1e-8, 4);
  EXPECT_EQ(best.tried, 4);
  EXPECT_TRUE(best.result.converged);
  EXPECT_EQ(best.result.solver, "fp16-F3R-best");
  // Label has the paper's m2-m3-m4 form.
  EXPECT_EQ(std::count(best.param_label.begin(), best.param_label.end(), '-'), 2);
}

TEST(Runner, F3rBestZeroBudgetTriesNothing) {
  auto p = prepare_problem("s", gen::laplace2d(8, 8), true, 1.0, 1.0, 8);
  auto m = precond(p, "bj;nblocks=2");
  const auto best = run_f3r_best(p, m, 1e-8, 0);
  EXPECT_EQ(best.tried, 0);
  EXPECT_FALSE(best.result.converged);
  EXPECT_EQ(best.param_label, "-");
}

TEST(Runner, F3rBestBudgetCappedByParameterBoxSize) {
  // The box is m2 ∈ {6..10} × m3 ∈ {2..6} × m4 ∈ {1,2} = 50 candidates;
  // an oversized budget must stop there.
  auto p = prepare_problem("s", gen::laplace2d(8, 8), true, 1.0, 1.0, 9);
  auto m = precond(p, "bj;nblocks=2");
  const auto best = run_f3r_best(p, m, 1e-6, 10000);
  EXPECT_EQ(best.tried, 50);
  EXPECT_TRUE(best.result.converged);
}

TEST(Runner, F3rBestOrdersCandidatesByMemoryAccessModel) {
  // With budget 1 exactly the model-cheapest configuration is tried, so on
  // an easy problem it is also the one returned.  Recompute the model's
  // argmin independently and compare.
  auto p = prepare_problem("s", gen::laplace2d(10, 10), true, 1.0, 1.0, 10);
  auto m = precond(p, "bj;nblocks=2");
  const auto best = run_f3r_best(p, m, 1e-8, 1);
  ASSERT_EQ(best.tried, 1);
  ASSERT_TRUE(best.result.converged);

  const double ca = access_constant(p.a->csr_fp64().nnz_per_row(), 2);
  double min_cost = std::numeric_limits<double>::max();
  int e2 = 0, e3 = 0, e4 = 0;
  for (int m2 = 6; m2 <= 10; ++m2)
    for (int m3 = 2; m3 <= 6; ++m3)
      for (int m4 = 1; m4 <= 2; ++m4) {
        const double c = cost_nested(ca, ca, {{'F', m2}, {'F', m3}, {'R', m4}});
        if (c < min_cost) {
          min_cost = c;
          e2 = m2;
          e3 = m3;
          e4 = m4;
        }
      }
  EXPECT_EQ(best.params.m2, e2);
  EXPECT_EQ(best.params.m3, e3);
  EXPECT_EQ(best.params.m4, e4);
  EXPECT_EQ(best.param_label, std::to_string(e2) + "-" + std::to_string(e3) + "-" +
                                  std::to_string(e4));
}

TEST(Runner, F3rBestSkipsNonConvergedCandidates) {
  // An unreachable tolerance: every candidate fails, the search reports
  // the whole budget as tried and returns a non-converged placeholder.
  auto p = prepare_problem("s", gen::laplace2d(6, 6), true, 1.0, 1.0, 11);
  auto m = precond(p, "bj;nblocks=2");
  const auto best = run_f3r_best(p, m, 1e-300, 2);
  EXPECT_EQ(best.tried, 2);
  EXPECT_FALSE(best.result.converged);
  EXPECT_EQ(best.param_label, "-");
  EXPECT_EQ(best.result.solver, "fp16-F3R-best");
}

}  // namespace
}  // namespace nk
