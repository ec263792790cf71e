// Adversarial-input coverage: hostile inputs driven through EVERY
// registered solver x preconditioner kind must come back as a defined
// SolveStatus within a bounded budget — no hang, crash, uncaught throw, or
// dishonest convergence claim.  This is the library-entry-point half of the
// resilience layer (the scheduled-corruption half lives in
// tests/fault/fault_matrix_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

PreparedProblem small_problem(bool symmetric) {
  return prepare_problem("adv", symmetric ? test::laplace2d(10, 10)
                                          : test::scaled_convdiff2d(10, 2.0),
                         symmetric, 1.0, 1.0, 3);
}

/// Every registered solver kind as a bounded-budget spec string over the
/// given preconditioner kind.
std::vector<std::string> bounded_specs(const std::string& precond_kind) {
  std::vector<std::string> specs;
  for (const auto& kind : registry().solver_kinds()) {
    const SolverKindInfo* info = registry().solver_info(kind);
    std::string s = kind;
    if (info->takes_m && info->default_m == 0) s += "8";
    s += "/" + precond_kind + ";max-iters=60;restarts=1;rtol=1e-8;nohist";
    specs.push_back(std::move(s));
  }
  return specs;
}

/// A status is "defined" when it is one of the taxonomy's enumerators and
/// any convergence claim is backed by the true residual.
void expect_defined(const SolveResult& r, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_LE(static_cast<int>(r.status), static_cast<int>(SolveStatus::kInvalidInput));
  if (r.converged) {
    EXPECT_EQ(r.status, SolveStatus::kConverged);
    EXPECT_TRUE(std::isfinite(r.final_relres));
  } else {
    EXPECT_NE(r.status, SolveStatus::kConverged);
  }
}

TEST(Adversarial, NanRhsThroughEveryKindIsRejectedUpFront) {
  const auto p = small_problem(true);
  const std::size_t n = p.b.size();
  std::vector<double> b(n, 1.0);
  b[n / 2] = kNan;
  std::vector<double> x(n, 0.0);
  for (const auto& spec : bounded_specs("bj")) {
    Session s(borrow_problem(p), SolverSpec::parse(spec));
    const SolveResult r =
        s.solve(std::span<const double>(b), std::span<double>(x));
    SCOPED_TRACE(spec);
    EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
    EXPECT_EQ(r.failure, "non-finite-b");
  }
}

TEST(Adversarial, NanInMatrixThroughEveryKindAndPrecond) {
  // A NaN matrix entry flows into residuals/recurrences; every kind must
  // stop with a defined status inside its budget.  Preconditioner
  // FACTORIZATION must survive too (bounded loops, clamped pivots).
  for (const auto& pk : registry().precond_kinds()) {
    auto a = test::laplace2d(10, 10);
    a.vals[a.vals.size() / 2] = kNan;
    PreparedProblem p;
    p.name = "nan-matrix";
    p.symmetric = true;
    p.a = std::make_shared<MultiPrecMatrix>(std::move(a));  // no scaling: keep the NaN
    p.b.assign(static_cast<std::size_t>(p.a->size()), 1.0);
    for (const auto& spec : bounded_specs(pk)) {
      SolveResult r;
      ASSERT_NO_THROW({
        Session s(borrow_problem(p), SolverSpec::parse(spec));
        r = s.solve();
      }) << spec << " over " << pk;
      expect_defined(r, spec + " over " + pk);
      EXPECT_FALSE(r.converged) << spec << " over " << pk;
    }
  }
}

TEST(Adversarial, ZeroDiagonalUnderJacobiAndIlu) {
  // A zero diagonal entry gives Jacobi a 1/0 and ILU(0)/IC(0) a zero pivot;
  // both must produce a usable (clamped) or honestly-failing solve, never a
  // crash or hang.
  for (const char* pk : {"jacobi", "bj"}) {
    auto a = test::laplace2d(10, 10);
    for (index_t i = a.row_ptr[7]; i < a.row_ptr[8]; ++i)
      if (a.col_idx[static_cast<std::size_t>(i)] == 7)
        a.vals[static_cast<std::size_t>(i)] = 0.0;
    PreparedProblem p;
    p.name = "zero-diag";
    p.symmetric = true;
    p.a = std::make_shared<MultiPrecMatrix>(std::move(a));
    p.b.assign(static_cast<std::size_t>(p.a->size()), 1.0);
    for (const auto& spec : bounded_specs(pk)) {
      SolveResult r;
      ASSERT_NO_THROW({
        Session s(borrow_problem(p), SolverSpec::parse(spec));
        r = s.solve();
      }) << spec << " over " << pk;
      expect_defined(r, spec + " over " + pk);
    }
  }
}

TEST(Adversarial, DegenerateBatchShapesThroughEveryKind) {
  const auto p = small_problem(true);
  const std::size_t n = p.b.size();
  for (const auto& spec : bounded_specs("bj")) {
    Session s(borrow_problem(p), SolverSpec::parse(spec));
    SCOPED_TRACE(spec);
    // k = 0 and k < 0: empty result, no work, no crash.
    std::vector<double> none;
    EXPECT_TRUE(s.solve_many(std::span<const double>(none),
                             std::span<double>(none), 0).empty());
    EXPECT_TRUE(s.solve_many(std::span<const double>(none),
                             std::span<double>(none), -3).empty());
    // Length-0 RHS through the scalar path: rejected, not segfaulted.
    std::vector<double> empty_x;
    const SolveResult r0 = s.solve(std::span<const double>(none),
                                   std::span<double>(empty_x));
    EXPECT_EQ(r0.status, SolveStatus::kInvalidInput);
    EXPECT_EQ(r0.failure, "size-mismatch");
    // Undersized batch storage: k results, all invalid_input.
    std::vector<double> shortB(n, 1.0), shortX(n, 0.0);
    const auto rs = s.solve_many(std::span<const double>(shortB),
                                 std::span<double>(shortX), 2);
    ASSERT_EQ(rs.size(), 2u);
    for (const auto& r : rs) EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  }
}

TEST(Adversarial, PoisonedColumnRetiresWithoutFreezingTheWave) {
  // One NaN right-hand side in a batched CG wave retires ITS column with a
  // named site while every other column converges normally — the batched
  // guard that keeps one bad tenant from freezing the building.
  const auto p = small_problem(true);
  const std::size_t n = p.b.size();
  const int k = 8;
  for (const char* spec : {"cg;wave=4", "bicgstab;wave=4"}) {
    Session s(borrow_problem(p), SolverSpec::parse(spec));
    auto B = s.make_rhs_batch(k);
    B[3 * n + n / 3] = kNan;
    std::vector<double> X(B.size(), 0.0);
    const auto rs = s.solve_many(std::span<const double>(B), std::span<double>(X), k);
    ASSERT_EQ(rs.size(), static_cast<std::size_t>(k));
    SCOPED_TRACE(spec);
    EXPECT_EQ(rs[3].status, SolveStatus::kNonFinite);
    EXPECT_FALSE(rs[3].failure.empty());
    for (int c = 0; c < k; ++c) {
      if (c != 3) {
        EXPECT_EQ(rs[c].status, SolveStatus::kConverged) << "column " << c;
      }
    }
  }
}

TEST(Adversarial, StagnationGuardStopsEarlyWithItsOwnStatus) {
  // A singular system with an inconsistent right-hand side (1D Neumann
  // laplacian, b with a null-space component) pins the residual at the
  // projection floor — the one stall the recurrence genuinely cannot
  // contract past.  (A merely-unreachable rtol on a regular system is NOT
  // such a stall: the recurrence norm keeps contracting geometrically all
  // the way to underflow and the engine demotes the false convergence
  // claim to kDiverged instead.)  With ";stagnate-window=" the solver
  // names the stall within a handful of iterations; without it the run
  // grinds on until a recurrence scalar degrades into a breakdown, an
  // order of magnitude later.
  const int n = 64;
  CsrMatrix<double> a;
  a.nrows = a.ncols = n;
  a.row_ptr.push_back(0);
  for (int i = 0; i < n; ++i) {
    if (i > 0) { a.col_idx.push_back(i - 1); a.vals.push_back(-1.0); }
    a.col_idx.push_back(i);
    a.vals.push_back((i == 0 || i == n - 1) ? 1.0 : 2.0);
    if (i < n - 1) { a.col_idx.push_back(i + 1); a.vals.push_back(-1.0); }
    a.row_ptr.push_back(static_cast<index_t>(a.col_idx.size()));
  }
  PreparedProblem p;
  p.name = "singular";
  p.symmetric = true;
  p.a = std::make_shared<MultiPrecMatrix>(std::move(a));
  p.b.assign(static_cast<std::size_t>(n), 1.0);
  p.b[3] = 2.0;  // inconsistent: a null-space component survives

  for (const char* kind : {"cg", "bicgstab"}) {
    SCOPED_TRACE(kind);
    Session guarded(borrow_problem(p), SolverSpec::parse(
        std::string(kind) + "/none;rtol=1e-300;max-iters=400;stagnate-window=5"));
    const SolveResult g = guarded.solve();
    EXPECT_EQ(g.status, SolveStatus::kStagnated);
    EXPECT_EQ(g.failure, "rnorm");
    EXPECT_LT(g.iterations, 400);

    Session plain(borrow_problem(p), SolverSpec::parse(
        std::string(kind) + "/none;rtol=1e-300;max-iters=400"));
    const SolveResult m = plain.solve();
    EXPECT_NE(m.status, SolveStatus::kConverged);
    EXPECT_GT(m.iterations, g.iterations);
  }
}

TEST(Adversarial, StagnationGuardAtRestartGranularityForNestedKinds) {
  const auto p = small_problem(true);
  Session s(borrow_problem(p), SolverSpec::parse(
                "f3r@fp16;rtol=1e-300;restarts=30;stagnate-window=2"));
  const SolveResult r = s.solve();
  EXPECT_EQ(r.status, SolveStatus::kStagnated);
  EXPECT_LT(r.restarts, 30);
}

}  // namespace
}  // namespace nk
