// Integration: every solver family must reach the same answer on the same
// prepared problems, across symmetric/nonsymmetric and CPU/GPU-sim
// configurations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/variants.hpp"
#include "support/solver_checks.hpp"

namespace nk {
namespace {

// (problem, gpu_sim) — the generated problems stay small (scale of the
// stand-ins is fixed; we use HPCG/HPGMP at 4_4_4 plus tiny scale-1 classes).
class SolverAgreement : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SolverAgreement, AllFamiliesConvergeTo1em8) {
  const auto& [name, gpu_sim] = GetParam();
  auto p = prepare_standin(name, 1, 7, gpu_sim);
  auto m = registry().make_precond(
      parse_precond_spec(gpu_sim ? "sd-ainv" : "bj;nblocks=4"), p);

  // "krylov" = CG on symmetric problems, BiCGStab otherwise.
  std::vector<SolveResult> results;
  for (const char* spec : {"f3r@fp64", "f3r@fp32", "f3r@fp16", "krylov@fp64;max-iters=8000",
                           "fgmres64@fp64;max-iters=8000"})
    results.push_back(Session(borrow_problem(p), parse_solver_spec(spec), m).solve());

  for (const auto& r : results) {
    EXPECT_TRUE(test::converged(r)) << name << " " << r.solver;
    EXPECT_LT(r.final_relres, 1.5e-8) << name << " " << r.solver;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Problems, SolverAgreement,
    ::testing::Values(std::make_tuple("hpcg_4_4_4", false),
                      std::make_tuple("hpgmp_4_4_4", false),
                      std::make_tuple("hpcg_4_4_4", true),
                      std::make_tuple("hpgmp_4_4_4", true)),
    [](const auto& info) {
      return std::get<0>(info.param) + (std::get<1>(info.param) ? "_gpusim" : "_cpu");
    });

TEST(SolverAgreementExtra, Table4VariantsSolveHpcg) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
  for (const auto& name : variant_names()) {
    const auto res = Session(borrow_problem(p), variant_config(name), f3r_termination(1e-8),
                             m).solve();
    EXPECT_TRUE(test::converged(res)) << name;
    EXPECT_LT(res.final_relres, 1e-8) << name;
  }
}

TEST(SolverAgreementExtra, PrecondStoragePrecisionSweepCg) {
  // fp64/fp32/fp16-CG all converge with nearly identical iteration counts
  // on a well-scaled SPD problem (the paper's Figure 1 observation).
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
  const auto r64 = Session(borrow_problem(p), parse_solver_spec("cg@fp64"), m).solve();
  const auto r32 = Session(borrow_problem(p), parse_solver_spec("cg@fp32"), m).solve();
  const auto r16 = Session(borrow_problem(p), parse_solver_spec("cg@fp16"), m).solve();
  EXPECT_TRUE(test::converged(r64));
  EXPECT_TRUE(test::converged(r32));
  EXPECT_TRUE(test::converged(r16));
  EXPECT_LE(std::abs(r32.iterations - r64.iterations), 2);
  EXPECT_LE(std::abs(r16.iterations - r64.iterations),
            std::max(2, r64.iterations / 4));
}

}  // namespace
}  // namespace nk
