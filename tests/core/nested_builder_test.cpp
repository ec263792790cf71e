// Tests for the nested-solver framework: MultiPrecMatrix, precision
// bridges, configuration validation, and end-to-end nested solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>
#ifdef _OPENMP
#include <omp.h>
#endif

#include "base/rng.hpp"
#include "core/f3r.hpp"
#include "core/nested_builder.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "sparse/gen/laplace.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/scaling.hpp"
#include "sparse/spmv.hpp"

namespace nk {
namespace {

std::shared_ptr<MultiPrecMatrix> small_matrix(bool sell = false) {
  auto a = gen::laplace2d(10, 10);
  diagonal_scale_symmetric(a);
  return std::make_shared<MultiPrecMatrix>(std::move(a), sell);
}

TEST(MultiPrecMatrix, LazyCopiesTrackedByValueBytes) {
  auto a = small_matrix();
  const CsrMatrix<double>& a64 = a->csr_fp64();
  const std::size_t nnz = a64.vals.size();
  const std::size_t base = a->bytes();
  EXPECT_EQ(base, nnz * 8 + (a64.row_ptr.size() + a64.col_idx.size()) * sizeof(index_t));
  // A lower copy adds its values and no index bytes.
  auto op32 = a->make_operator<float>(Prec::FP32);
  EXPECT_EQ(a->bytes(), base + nnz * 4);
  auto op16 = a->make_operator<half>(Prec::FP16);
  EXPECT_EQ(a->bytes(), base + nnz * 6);
  // Re-requesting does not duplicate.
  auto op16b = a->make_operator<float>(Prec::FP16);
  EXPECT_EQ(a->bytes(), base + nnz * 6);
}

TEST(MultiPrecMatrix, LowerCopiesShareTheFp64Indices) {
  auto a = small_matrix();
  const CsrMatrix<double>& a64 = a->csr_fp64();
  const auto check = [&]<class P>() {
    const MatrixCopy<P>& c = a->copy<P>();
    ASSERT_TRUE(c.csr.has_value());
    EXPECT_FALSE(c.sell.has_value());
    EXPECT_EQ(c.csr->pat.get(), static_cast<const CsrPattern*>(&a64));
    EXPECT_EQ(CsrView<P>(*c.csr).row_ptr.data(), a64.row_ptr.data());
    EXPECT_EQ(CsrView<P>(*c.csr).col_idx.data(), a64.col_idx.data());
    EXPECT_EQ(c.csr->vals.size(), a64.vals.size());
  };
  check.template operator()<float>();
  check.template operator()<half>();
}

TEST(MultiPrecMatrix, SellCopiesShareTheSliceStructureAndKeepNoCsr) {
  auto a = small_matrix(/*sell=*/true);
  const MatrixCopy<double>& c64 = a->copy<double>();
  ASSERT_NE(c64.sell, nullptr);
  const std::size_t padded = c64.sell->padded_nnz();
  const std::size_t base = a->bytes();
  EXPECT_EQ(base, c64.csr->index_bytes() + c64.csr->vals.size() * 8 +
                      c64.sell->index_bytes() + padded * 8);
  const auto check = [&]<class P>() {
    const MatrixCopy<P>& c = a->copy<P>();
    EXPECT_FALSE(c.csr.has_value());
    ASSERT_TRUE(c.sell.has_value());
    EXPECT_EQ(c.sell->pat.get(), static_cast<const SellPattern*>(c64.sell.get()));
    EXPECT_EQ(SellView<P>(*c.sell).cols.data(), c64.sell->cols.data());
    EXPECT_EQ(SellView<P>(*c.sell).slice_ptr.data(), c64.sell->slice_ptr.data());
    // The values equal a SELL conversion of the cast CSR matrix.
    const auto ref = csr_to_sell(cast_matrix<P>(a->csr_fp64()), c64.sell->chunk);
    ASSERT_EQ(c.sell->vals.size(), ref.vals.size());
    for (std::size_t k = 0; k < ref.vals.size(); ++k)
      EXPECT_EQ(static_cast<double>(c.sell->vals[k]), static_cast<double>(ref.vals[k]));
  };
  check.template operator()<float>();
  EXPECT_EQ(a->bytes(), base + padded * 4);
  check.template operator()<half>();
  EXPECT_EQ(a->bytes(), base + padded * 6);
}

TEST(MultiPrecMatrix, OperatorsComputeSameProduct) {
  auto a = small_matrix();
  const index_t n = a->size();
  const auto xd = random_vector<double>(n, 1, 0.0, 1.0);
  std::vector<double> y64(n);
  auto op64 = a->make_operator<double>(Prec::FP64);
  op64->apply(std::span<const double>(xd), std::span<double>(y64));

  auto op16 = a->make_operator<float>(Prec::FP16);
  const auto xf = converted<float>(xd);
  std::vector<float> y16(n);
  op16->apply(std::span<const float>(xf), std::span<float>(y16));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(y16[i], y64[i], 2e-2);
  EXPECT_EQ(op64->spmv_count(), 1u);
}

TEST(MultiPrecMatrix, SellVariantMatchesCsr) {
  auto ac = small_matrix(false);
  auto as = small_matrix(true);
  EXPECT_FALSE(ac->uses_sell());
  EXPECT_TRUE(as->uses_sell());
  const index_t n = ac->size();
  const auto x = random_vector<double>(n, 2, 0.0, 1.0);
  std::vector<double> yc(n), ys(n);
  ac->make_operator<double>(Prec::FP64)->apply(std::span<const double>(x), std::span<double>(yc));
  as->make_operator<double>(Prec::FP64)->apply(std::span<const double>(x), std::span<double>(ys));
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yc[i], 1e-12);
}

TEST(MultiPrecMatrix, RejectsRectangular) {
  CsrMatrix<double> r(2, 3);
  r.row_ptr = {0, 0, 0};
  EXPECT_THROW(MultiPrecMatrix(std::move(r)), std::invalid_argument);
}

TEST(PrecisionBridge, RoundTripsThroughLowerPrecision) {
  // Bridge double→float over an inner identity: output is the fp32-rounded
  // input.
  IdentityPrecond<float> inner(4);
  PrecisionBridge<double, float> bridge(&inner);
  std::vector<double> r = {1.0 + 1e-12, 2.0, -3.5, 0.1};
  std::vector<double> z(4);
  bridge.apply(std::span<const double>(r), std::span<double>(z));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(z[i], static_cast<double>(static_cast<float>(r[i])));
  EXPECT_EQ(bridge.size(), 4);
}

TEST(Validation, RejectsBadConfigs) {
  NestedConfig cfg;
  EXPECT_THROW(validate(cfg), std::invalid_argument);  // empty

  cfg = f3r_config(Prec::FP16);
  cfg.levels[0].vec = Prec::FP32;  // outermost must be fp64
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[0].kind = SolverKind::Richardson;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[2].m = 0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  cfg = f3r_config(Prec::FP16);
  cfg.levels[3].cycle = 0;
  EXPECT_THROW(validate(cfg), std::invalid_argument);

  EXPECT_NO_THROW(validate(f3r_config(Prec::FP16)));
}

TEST(TupleNotation, MatchesPaperString) {
  EXPECT_EQ(tuple_notation(f3r_config(Prec::FP16)), "(F^100, F^8, F^4, R^2, M)");
}

class NestedSolveAllPrecisions : public ::testing::TestWithParam<Prec> {};

TEST_P(NestedSolveAllPrecisions, F3rSolvesSmallLaplacian) {
  auto a = gen::laplace2d(16, 16);
  auto p = prepare_problem("lap", std::move(a), true, 1.0, 1.0, 11);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  const auto res = Session(borrow_problem(p), f3r_config(GetParam()), f3r_termination(1e-8),
                           m).solve();
  EXPECT_TRUE(res.converged) << prec_name(GetParam());
  EXPECT_LT(res.final_relres, 1e-8);
  EXPECT_GT(res.precond_invocations, 0u);
  // F3R applies M in multiples of m2·m3·m4 = 64 per outer iteration.
  EXPECT_EQ(res.precond_invocations % 64, 0u);
}

INSTANTIATE_TEST_SUITE_P(Precisions, NestedSolveAllPrecisions,
                         ::testing::Values(Prec::FP64, Prec::FP32, Prec::FP16),
                         [](const auto& info) { return prec_name(info.param); });

TEST(NestedSolver, SolutionMatchesDirectKrylov) {
  auto a = gen::hpcg(3, 3, 3);
  auto p = prepare_problem("hpcg", std::move(a), true, 1.0, 1.0, 3);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-10),
                           m).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_relres, 1e-10);  // true fp64 residual, not an estimate
}

TEST(NestedSolver, RichardsonWeightProbes) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 4);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=1"), p);
  NestedSolver s(p.a, m, f3r_config(Prec::FP16));
  const auto w0 = s.richardson_weights();
  ASSERT_EQ(w0.size(), 2u);  // m4 = 2 weights
  EXPECT_FLOAT_EQ(w0[0], 1.0f);

  std::vector<double> x(p.b.size(), 0.0);
  s.solve(std::span<const double>(p.b), std::span<double>(x), f3r_termination(1e-8));
  const auto w1 = s.richardson_weights();
  // ≥ 64 Richardson invocations happened → at least one ω update.
  EXPECT_NE(w1[0], 1.0f);

  s.reset_state();
  EXPECT_FLOAT_EQ(s.richardson_weights()[0], 1.0f);
}

TEST(NestedSolver, RestartsCountedAndCapped) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 5);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=1"), p);
  // Tiny outer dimension + impossible tolerance → exhausts all restarts.
  F3rParams prm;
  prm.m1 = 2;
  auto cfg = f3r_config(Prec::FP64, prm);
  NestedSolver s(p.a, m, cfg);
  Termination t;
  t.rtol = 1e-300;
  t.max_restarts = 2;
  std::vector<double> x(p.b.size(), 0.0);
  const auto res = s.solve(std::span<const double>(p.b), std::span<double>(x), t);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.restarts, 2);
  // 3 cycles × m1=2, minus possible lucky-breakdown early exits when the
  // inner pipeline solves the correction (nearly) exactly.
  EXPECT_GE(res.iterations, 3);
  EXPECT_LE(res.iterations, 6);

  // The flat fgmres kind is the one-level tuple (F^8, M) bounded by the
  // iteration budget alone: the seventh cycle still starts (48 < 50) and
  // runs whole, and six restarts happened.  SpMVs = 56 Arnoldi products +
  // one residual per restarted cycle.
  const auto f =
      Session(borrow_problem(p), "fgmres8/none;rtol=1e-300;max-iters=50").solve();
  EXPECT_EQ(f.status, SolveStatus::kMaxIters);
  EXPECT_EQ(f.iterations, 56);
  EXPECT_EQ(f.precond_invocations, 56u);
  EXPECT_EQ(f.spmv_count, 62u);
  EXPECT_EQ(f.restarts, 6);
}

TEST(NestedSolver, HistoryRecordsOuterEstimates) {
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 6);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  NestedSolver s(p.a, m, f3r_config(Prec::FP32));
  Termination t = f3r_termination(1e-8);
  std::vector<double> x(p.b.size(), 0.0);
  const auto res = s.solve(std::span<const double>(p.b), std::span<double>(x), t);
  ASSERT_EQ(static_cast<int>(res.history.size()), res.iterations);
  EXPECT_LE(res.history.back(), 1e-8 * 1.01);

  t.record_history = false;
  std::vector<double> x2(p.b.size(), 0.0);
  EXPECT_TRUE(s.solve(std::span<const double>(p.b), std::span<double>(x2), t).history.empty());
}

TEST(NestedSolver, MismatchedPrecondRejected) {
  auto p = prepare_problem("lap", gen::laplace2d(8, 8), true, 1.0, 1.0, 7);
  auto p2 = prepare_problem("lap2", gen::laplace2d(4, 4), true, 1.0, 1.0, 7);
  auto m_small = registry().make_precond(parse_precond_spec("bj;nblocks=1"), p2);
  EXPECT_THROW(NestedSolver(p.a, m_small, f3r_config(Prec::FP64)), std::invalid_argument);
}

TEST(NestedSolver, TwoLevelConfigWorks) {
  // Minimal nesting: (F^50, R^2, M) — Richardson directly under the outer.
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 8);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  NestedConfig cfg;
  cfg.name = "F-R";
  LevelSpec outer;
  outer.m = 50;
  LevelSpec rich;
  rich.kind = SolverKind::Richardson;
  rich.m = 2;
  rich.mat = Prec::FP64;
  rich.vec = Prec::FP64;
  cfg.levels = {outer, rich};
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(res.converged);
}

TEST(NestedSolver, SingleLevelIsPlainFgmres) {
  // (F^100, M): degenerate nesting = preconditioned FGMRES.
  auto p = prepare_problem("lap", gen::laplace2d(10, 10), true, 1.0, 1.0, 9);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  NestedConfig cfg;
  cfg.name = "flat";
  LevelSpec outer;
  outer.m = 100;
  cfg.levels = {outer};
  const auto res = Session(borrow_problem(p), cfg, f3r_termination(1e-8), m).solve();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.precond_invocations, static_cast<std::uint64_t>(res.iterations));
}

TEST(NestedSolver, GpuSimSellConfiguration) {
  // SELL storage + SD-AINV: the Figure 2 configuration.
  auto p = prepare_problem("lap", gen::laplace2d(12, 12), true, 1.0, 1.0, 10, /*use_sell=*/true);
  auto m = registry().make_precond(parse_precond_spec("sd-ainv"), p);
  const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16), f3r_termination(1e-8),
                           m).solve();
  EXPECT_TRUE(res.converged);
}

/// FGMRES never reads a basis column before writing it: a workspace whose
/// V/Z slabs hold NaN (all-ones bytes are NaN at every precision) gives
/// the same x, iteration count and relres, bit for bit, as a fresh one.
/// One thread, so the two solves share one summation order.
TEST(NestedSolver, FgmresBasesAreWrittenBeforeRead) {
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const auto p = prepare_standin("hpcg_4_4_4", -4);
  const auto m = registry().make_precond(parse_precond_spec("bj"), p);
  const std::size_t n = p.b.size();

  NestedConfig fgmres8;
  fgmres8.name = "fgmres8";
  LevelSpec outer;
  outer.m = 8;
  fgmres8.levels = {outer};
  Termination fgmres8_term;
  fgmres8_term.max_restarts = 1000;

  const std::pair<NestedConfig, Termination> cases[] = {
      {f3r_config(Prec::FP16), f3r_termination()}, {fgmres8, fgmres8_term}};
  for (const auto& [cfg, term] : cases) {
    SolverWorkspace fresh;
    std::vector<double> x_fresh(n, 0.0);
    const auto r_fresh = NestedSolver(p.a, m, cfg, &fresh).solve(p.b, x_fresh, term);

    SolverWorkspace poisoned;
    for (std::size_t d = 0; d < cfg.levels.size(); ++d) {
      const LevelSpec& lv = cfg.levels[d];
      if (lv.kind != SolverKind::FGMRES) continue;
      const std::size_t col = n * prec_bytes(lv.vec);
      const std::string key = "lvl" + std::to_string(d) + ".fgmres";
      const auto m1 = static_cast<std::size_t>(lv.m);
      for (auto [suffix, bytes] : {std::pair{".V", (m1 + 1) * col}, std::pair{".Z", m1 * col}}) {
        auto slab = poisoned.get<unsigned char>(key + suffix, bytes);
        std::fill(slab.begin(), slab.end(), static_cast<unsigned char>(0xFF));
      }
    }
    std::vector<double> x_poisoned(n, 0.0);
    const auto r_poisoned = NestedSolver(p.a, m, cfg, &poisoned).solve(p.b, x_poisoned, term);

    EXPECT_TRUE(r_fresh.converged) << cfg.name;
    // The poisoned slabs had exactly the solver's sizes: reused, not regrown.
    EXPECT_EQ(poisoned.allocations(), fresh.allocations()) << cfg.name;
    EXPECT_EQ(poisoned.bytes(), fresh.bytes()) << cfg.name;
    EXPECT_EQ(r_poisoned.iterations, r_fresh.iterations) << cfg.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r_poisoned.final_relres),
              std::bit_cast<std::uint64_t>(r_fresh.final_relres))
        << cfg.name;
    EXPECT_EQ(x_poisoned, x_fresh) << cfg.name;
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
}

}  // namespace
}  // namespace nk
