// Integration: batched multi-RHS solving (the setup/solve split).
//
// For every solver family and the F3R variants, solve_many(B) must agree
// COLUMN-BY-COLUMN with k independent solve(b) calls — exactly (to the
// bit) for the fp64 paths at any thread count (the forced-team re-run
// checks that with a real 4-thread team), and to a tight tolerance for
// the fp16-inner-level nestings (whose per-column sequences are preserved
// by construction, but whose true residuals are the meaningful
// comparison).  Also covered: the k = 0 and k = 1 edge
// cases, and SolverWorkspace reuse across two different matrices with
// zero re-allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "base/env.hpp"
#include "base/rng.hpp"
#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/variants.hpp"
#include "krylov/bicgstab.hpp"
#include "krylov/cg.hpp"
#include "krylov/richardson.hpp"
#include "precond/block_jacobi_ilu0.hpp"
#include "precond/jacobi.hpp"
#include "support/problems.hpp"
#include "support/solver_checks.hpp"

namespace nk {
namespace {

/// k RHS at columns of a contiguous block, each a fresh seeded vector.
std::vector<double> make_batch(std::size_t n, int k, std::uint64_t seed0) {
  std::vector<double> B(n * static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    const auto col = random_vector<double>(n, seed0 + static_cast<std::uint64_t>(c), 0.0, 1.0);
    std::copy(col.begin(), col.end(), B.begin() + static_cast<std::size_t>(c) * n);
  }
  return B;
}

// ---------------------------------------------------------------- flat CG

TEST(BatchedSolve, CgExactColumnAgreement) {
  const auto a = test::scaled_laplace2d(24, 24);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  JacobiPrecond jac(a);
  CgSolver<double>::Config cfg{.rtol = 1e-9, .max_iters = 2000, .record_history = true};

  for (int k : {0, 1, 3, 8}) {
    const auto B = make_batch(n, k, 11);
    std::vector<double> X(n * static_cast<std::size_t>(k), 0.0);

    CsrOperator<double, double> op_b(a);
    auto h_b = jac.make_apply<double>(Prec::FP64);
    CgSolver<double> batched(op_b, *h_b, cfg);
    const auto many = batched.solve_many(B.data(), static_cast<std::ptrdiff_t>(n),
                                         X.data(), static_cast<std::ptrdiff_t>(n), k);
    ASSERT_EQ(many.size(), static_cast<std::size_t>(k));

    for (int c = 0; c < k; ++c) {
      CsrOperator<double, double> op_s(a);
      auto h_s = jac.make_apply<double>(Prec::FP64);
      CgSolver<double> seq(op_s, *h_s, cfg);
      std::vector<double> x(n, 0.0);
      const auto one = seq.solve(
          std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
          std::span<double>(x));
      EXPECT_EQ(many[c].converged, one.converged) << "c=" << c;
      EXPECT_EQ(many[c].iterations, one.iterations) << "c=" << c;
      ASSERT_EQ(many[c].history.size(), one.history.size()) << "c=" << c;
      for (std::size_t t = 0; t < one.history.size(); ++t)
        EXPECT_EQ(many[c].history[t], one.history[t]) << "c=" << c << " t=" << t;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(X[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
    }
  }
}

TEST(BatchedSolve, CgIlu0ExactColumnAgreement) {
  // ILU0's fused apply_many shares the factor sweep — still bit-identical
  // per column to the sequential triangular solves.
  const auto a = test::scaled_convdiff2d(20, 0.0);  // SPD (no convection)
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  BlockJacobiIlu0 ilu(a, {.nblocks = 4, .alpha = 1.0});
  CgSolver<double>::Config cfg{.rtol = 1e-9, .max_iters = 2000};
  const int k = 5;
  const auto B = make_batch(n, k, 21);
  std::vector<double> X(n * k, 0.0);

  CsrOperator<double, double> op_b(a);
  auto h_b = ilu.make_apply<double>(Prec::FP64);
  CgSolver<double> batched(op_b, *h_b, cfg);
  const auto many = batched.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                                       static_cast<std::ptrdiff_t>(n), k);
  for (int c = 0; c < k; ++c) {
    CsrOperator<double, double> op_s(a);
    auto h_s = ilu.make_apply<double>(Prec::FP64);
    CgSolver<double> seq(op_s, *h_s, cfg);
    std::vector<double> x(n, 0.0);
    const auto one =
        seq.solve(std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
                  std::span<double>(x));
    EXPECT_EQ(many[c].iterations, one.iterations) << "c=" << c;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(X[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
  }
}

// ------------------------------------------------------------- BiCGStab

TEST(BatchedSolve, BicgstabExactColumnAgreement) {
  const auto a = test::scaled_convdiff2d(20, 15.0);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  BlockJacobiIlu0 ilu(a, {.nblocks = 4, .alpha = 1.0});
  BiCgStabSolver<double>::Config cfg{.rtol = 1e-9, .max_iters = 2000, .record_history = true};

  for (int k : {1, 4}) {
    const auto B = make_batch(n, k, 31);
    std::vector<double> X(n * static_cast<std::size_t>(k), 0.0);
    CsrOperator<double, double> op_b(a);
    auto h_b = ilu.make_apply<double>(Prec::FP64);
    BiCgStabSolver<double> batched(op_b, *h_b, cfg);
    const auto many = batched.solve_many(B.data(), static_cast<std::ptrdiff_t>(n),
                                         X.data(), static_cast<std::ptrdiff_t>(n), k);
    for (int c = 0; c < k; ++c) {
      CsrOperator<double, double> op_s(a);
      auto h_s = ilu.make_apply<double>(Prec::FP64);
      BiCgStabSolver<double> seq(op_s, *h_s, cfg);
      std::vector<double> x(n, 0.0);
      const auto one =
          seq.solve(std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
                    std::span<double>(x));
      EXPECT_EQ(many[c].converged, one.converged) << "c=" << c;
      EXPECT_EQ(many[c].iterations, one.iterations) << "c=" << c;
      ASSERT_EQ(many[c].history.size(), one.history.size()) << "c=" << c;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(X[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
    }
  }
}

// ------------------------------------------------------------ Richardson

TEST(BatchedSolve, RichardsonApplyManyPreservesInvocationOrder) {
  const auto a = test::scaled_laplace2d(16, 16);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  JacobiPrecond jac(a);
  RichardsonSolver<double>::Config cfg{.m = 2, .cycle = 3, .adaptive = true};
  const int k = 7;  // crosses a weight-update invocation mid-batch
  const auto R = make_batch(n, k, 51);
  std::vector<double> Zb(n * k, 0.0);

  CsrOperator<double, double> op_b(a);
  auto h_b = jac.make_apply<double>(Prec::FP64);
  RichardsonSolver<double> batched(op_b, *h_b, cfg);
  batched.apply_many(R.data(), static_cast<std::ptrdiff_t>(n), Zb.data(),
                     static_cast<std::ptrdiff_t>(n), k);

  CsrOperator<double, double> op_s(a);
  auto h_s = jac.make_apply<double>(Prec::FP64);
  RichardsonSolver<double> seq(op_s, *h_s, cfg);
  for (int c = 0; c < k; ++c) {
    std::vector<double> z(n, 0.0);
    seq.apply(std::span<const double>(R.data() + static_cast<std::size_t>(c) * n, n),
              std::span<double>(z));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(Zb[static_cast<std::size_t>(c) * n + i], z[i]) << "c=" << c << " i=" << i;
  }
  EXPECT_EQ(batched.invocations(), seq.invocations());
  EXPECT_EQ(batched.weight_updates(), seq.weight_updates());
  ASSERT_EQ(batched.weights().size(), seq.weights().size());
  for (std::size_t t = 0; t < seq.weights().size(); ++t)
    EXPECT_EQ(batched.weights()[t], seq.weights()[t]);
}

// -------------------------------------------------------- nested (F3R)

TEST(BatchedSolve, NestedF3rFp64ExactColumnAgreement) {
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
  const std::size_t n = p.b.size();
  const int k = 3;
  const auto B = make_batch(n, k, 61);
  std::vector<double> X(n * k, 0.0);
  const auto term = f3r_termination(1e-8);

  SolverWorkspace ws;
  NestedSolver batched(p.a, m, f3r_config(Prec::FP64), &ws);
  const auto many = batched.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                                       static_cast<std::ptrdiff_t>(n), k, term);

  NestedSolver seq(p.a, m, f3r_config(Prec::FP64));
  for (int c = 0; c < k; ++c) {
    std::vector<double> x(n, 0.0);
    const auto one =
        seq.solve(std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
                  std::span<double>(x), term);
    EXPECT_EQ(many[c].converged, one.converged) << "c=" << c;
    EXPECT_EQ(many[c].iterations, one.iterations) << "c=" << c;
    EXPECT_EQ(many[c].final_relres, one.final_relres) << "c=" << c;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(X[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
  }
  // Fresh sequential tuple ⇒ same adaptive-state trajectory ⇒ identical
  // Richardson weights afterwards.
  const auto wb = batched.richardson_weights();
  const auto wsq = seq.richardson_weights();
  ASSERT_EQ(wb.size(), wsq.size());
  for (std::size_t t = 0; t < wb.size(); ++t) EXPECT_EQ(wb[t], wsq[t]);
}

TEST(BatchedSolve, F3rVariantsConvergePerColumn) {
  // fp32/fp16 nestings: per-column sequences are preserved by
  // construction; assert the meaningful contract — every column of the
  // batch converges to the same tolerance its sequential counterpart does.
  auto p = prepare_standin("hpcg_4_4_4", 1);
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p);
  const std::size_t n = p.b.size();
  const int k = 3;
  const auto B = batch_rhs(p, k);
  std::vector<double> X(n * k, 0.0);

  for (const Prec lowest : {Prec::FP32, Prec::FP16}) {
    std::fill(X.begin(), X.end(), 0.0);
    const auto many = Session(borrow_problem(p), f3r_config(lowest), f3r_termination(), m)
                          .solve_many(std::span<const double>(B), std::span<double>(X), k);
    for (int c = 0; c < k; ++c) {
      EXPECT_TRUE(test::converged(many[c])) << f3r_name(lowest) << " c=" << c;
      EXPECT_LT(many[c].final_relres, 1.5e-8) << f3r_name(lowest) << " c=" << c;
    }
  }
  // Table 4 ablation variants, k = 2 (they share the same machinery).
  for (const auto& name : variant_names()) {
    std::fill(X.begin(), X.end(), 0.0);
    const auto many = Session(borrow_problem(p), variant_config(name), f3r_termination(), m)
                          .solve_many(std::span<const double>(B), std::span<double>(X), 2);
    for (int c = 0; c < 2; ++c) {
      EXPECT_TRUE(test::converged(many[c])) << name << " c=" << c;
      EXPECT_LT(many[c].final_relres, 1.5e-8) << name << " c=" << c;
    }
  }
}

// ------------------------------------------- active-set compaction edges
//
// The compaction edge cases ride on eigen-engineered right-hand sides:
// the scaled 2-D Laplacian's eigenvectors are product sines, and a RHS
// spanning s eigenvectors with distinct eigenvalues exhausts its Krylov
// space after exactly s steps, so the column converges at iteration s —
// which lets tests place retirements (and hence compactions) at exact
// iterations and dispatch-width boundaries.

/// RHS spanning the (p,p) grid modes for p in `ps` (distinct eigenvalues).
std::vector<double> mode_rhs(index_t nx, index_t ny, const std::vector<int>& ps) {
  std::vector<double> b(static_cast<std::size_t>(nx) * ny, 0.0);
  for (int p : ps)
    for (index_t y = 0; y < ny; ++y)
      for (index_t x = 0; x < nx; ++x)
        b[static_cast<std::size_t>(y) * nx + x] +=
            std::sin(M_PI * p * (x + 1.0) / (nx + 1)) *
            std::sin(M_PI * p * (y + 1.0) / (ny + 1));
  return b;
}

/// First s mode indices {1..s}.
std::vector<int> first_modes(int s) {
  std::vector<int> ps(static_cast<std::size_t>(s));
  for (int p = 1; p <= s; ++p) ps[static_cast<std::size_t>(p - 1)] = p;
  return ps;
}

/// Batch matrix whose column c spans `counts[c]` modes (0 = random RHS).
std::vector<double> staggered_batch(index_t nx, index_t ny, const std::vector<int>& counts,
                                    std::uint64_t seed0) {
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  std::vector<double> B(n * counts.size());
  for (std::size_t c = 0; c < counts.size(); ++c) {
    const auto col = counts[c] > 0
                         ? mode_rhs(nx, ny, first_modes(counts[c]))
                         : random_vector<double>(n, seed0 + c, 0.0, 1.0);
    std::copy(col.begin(), col.end(), B.begin() + c * n);
  }
  return B;
}

/// Run batched (at `wave`) and sequential CG on the same batch and assert
/// bit-identical iterates, iteration counts, and histories.
void check_cg_compact_vs_seq(const CsrMatrix<double>& a, const std::vector<double>& B,
                             int k, int wave, CgSolver<double>::Config cfg) {
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  JacobiPrecond jac(a);
  cfg.record_history = true;

  std::vector<double> Xc(n * static_cast<std::size_t>(k), 0.0);
  CsrOperator<double, double> op_c(a);
  auto h_c = jac.make_apply<double>(Prec::FP64);
  CgSolver<double> compact(op_c, *h_c, cfg);
  const auto many_c = compact.solve_many(B.data(), static_cast<std::ptrdiff_t>(n),
                                         Xc.data(), static_cast<std::ptrdiff_t>(n), k, wave);

  for (int c = 0; c < k; ++c) {
    CsrOperator<double, double> op_s(a);
    auto h_s = jac.make_apply<double>(Prec::FP64);
    CgSolver<double> seq(op_s, *h_s, cfg);
    std::vector<double> x(n, 0.0);
    const auto one = seq.solve(
        std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
        std::span<double>(x));
    EXPECT_EQ(many_c[c].converged, one.converged) << "c=" << c;
    EXPECT_EQ(many_c[c].iterations, one.iterations) << "c=" << c;
    ASSERT_EQ(many_c[c].history.size(), one.history.size()) << "c=" << c;
    for (std::size_t t = 0; t < one.history.size(); ++t)
      ASSERT_EQ(many_c[c].history[t], one.history[t]) << "c=" << c << " t=" << t;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(Xc[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
  }
}

TEST(BatchedCompaction, AllColumnsRetireAtIterationOne) {
  // Every column is a single eigenvector: the whole batch converges at
  // iteration 1 and the active set empties in one compaction burst.
  const auto a = test::scaled_laplace2d(20, 20);
  std::vector<int> counts(5);
  for (int c = 0; c < 5; ++c) counts[c] = 1;
  const auto B = staggered_batch(20, 20, counts, 101);
  check_cg_compact_vs_seq(a, B, 5, 0, {.rtol = 1e-9, .max_iters = 100});
}

TEST(BatchedCompaction, AllColumnsConvergedAtInit) {
  // b = 0 columns converge before the loop (iteration 0): the compact path
  // must return without ever dispatching a kernel.
  const auto a = test::scaled_laplace2d(12, 12);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const int k = 3;
  std::vector<double> B(n * k, 0.0), X(n * k, 0.0);
  JacobiPrecond jac(a);
  CsrOperator<double, double> op(a);
  auto h = jac.make_apply<double>(Prec::FP64);
  CgSolver<double> s(op, *h, {.rtol = 1e-9, .max_iters = 100});
  const auto many = s.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                                 static_cast<std::ptrdiff_t>(n), k);
  for (int c = 0; c < k; ++c) {
    EXPECT_TRUE(many[c].converged) << "c=" << c;
    EXPECT_EQ(many[c].iterations, 0) << "c=" << c;
  }
  EXPECT_EQ(op.spmv_count(), static_cast<std::uint64_t>(k));  // k init residuals only
}

TEST(BatchedCompaction, OneStraggler) {
  // Seven columns retire immediately; one random column keeps iterating
  // alone — the tail runs at width 1 through the compacted panels.
  const auto a = test::scaled_laplace2d(20, 20);
  std::vector<int> counts(8, 1);
  counts[3] = 0;  // random RHS straggler (mid-batch, so the map is exercised)
  const auto B = staggered_batch(20, 20, counts, 111);
  check_cg_compact_vs_seq(a, B, 8, 0, {.rtol = 1e-9, .max_iters = 2000});
}

TEST(BatchedCompaction, RetireExactlyAtDispatchBoundary) {
  // 16 columns, half spanning 2 modes: at iteration 2 exactly eight
  // columns retire together and the live width crosses the 16 → 8
  // compile-time dispatch tier in one step.
  const auto a = test::scaled_laplace2d(20, 20);
  std::vector<int> counts(16);
  for (int c = 0; c < 16; ++c) counts[c] = (c % 2 == 0) ? 2 : 6;
  const auto B = staggered_batch(20, 20, counts, 121);
  check_cg_compact_vs_seq(a, B, 16, 0, {.rtol = 1e-9, .max_iters = 200});
}

TEST(BatchedCompaction, RaggedWavesMatchSequential) {
  // 9 columns of mixed difficulty through 4-wide waves: retiring columns
  // hand their slots to pending ones mid-flight.  Also the degenerate
  // wave = 1 (fully sequential scheduling through the batched code path)
  // and wave > k (plain lockstep).
  const auto a = test::scaled_laplace2d(20, 20);
  const std::vector<int> counts = {1, 0, 3, 1, 0, 5, 2, 0, 4};
  const auto B = staggered_batch(20, 20, counts, 131);
  for (int wave : {4, 1, 16})
    check_cg_compact_vs_seq(a, B, 9, wave, {.rtol = 1e-9, .max_iters = 2000});
}

TEST(BatchedCompaction, MaxItersRetirementRefillsWave) {
  // Columns that exhaust the iteration budget unconverged must retire and
  // hand their wave slot to pending columns, with iteration counts intact.
  const auto a = test::scaled_laplace2d(20, 20);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const int k = 5;
  const auto B = staggered_batch(20, 20, {0, 1, 0, 1, 0}, 141);
  JacobiPrecond jac(a);
  CgSolver<double>::Config cfg{.rtol = 1e-12, .max_iters = 7};  // unreachable target

  std::vector<double> Xb(n * k, 0.0);
  CsrOperator<double, double> op_b(a);
  auto h_b = jac.make_apply<double>(Prec::FP64);
  CgSolver<double> batched(op_b, *h_b, cfg);
  const auto many = batched.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), Xb.data(),
                                       static_cast<std::ptrdiff_t>(n), k, /*wave=*/2);
  for (int c = 0; c < k; ++c) {
    CsrOperator<double, double> op_s(a);
    auto h_s = jac.make_apply<double>(Prec::FP64);
    CgSolver<double> seq(op_s, *h_s, cfg);
    std::vector<double> x(n, 0.0);
    const auto one = seq.solve(
        std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
        std::span<double>(x));
    EXPECT_EQ(many[c].converged, one.converged) << "c=" << c;
    EXPECT_EQ(many[c].iterations, one.iterations) << "c=" << c;
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(Xb[static_cast<std::size_t>(c) * n + i], x[i]) << "c=" << c << " i=" << i;
  }
}

TEST(BatchedCompaction, BicgstabCompactMatchesSequential) {
  const auto a = test::scaled_laplace2d(20, 20);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  const int k = 6;
  const auto B = staggered_batch(20, 20, {1, 0, 2, 1, 0, 4}, 151);
  BlockJacobiIlu0 ilu(a, {.nblocks = 4, .alpha = 1.0});
  BiCgStabSolver<double>::Config cfg{.rtol = 1e-9, .max_iters = 2000, .record_history = true};

  for (int wave : {0, 3}) {
    std::vector<double> Xc(n * k, 0.0);
    CsrOperator<double, double> op_c(a);
    auto h_c = ilu.make_apply<double>(Prec::FP64);
    BiCgStabSolver<double> compact(op_c, *h_c, cfg);
    const auto many_c = compact.solve_many(B.data(), static_cast<std::ptrdiff_t>(n),
                                           Xc.data(), static_cast<std::ptrdiff_t>(n), k, wave);


    for (int c = 0; c < k; ++c) {
      CsrOperator<double, double> op_s(a);
      auto h_s = ilu.make_apply<double>(Prec::FP64);
      BiCgStabSolver<double> seq(op_s, *h_s, cfg);
      std::vector<double> x(n, 0.0);
      const auto one = seq.solve(
          std::span<const double>(B.data() + static_cast<std::size_t>(c) * n, n),
          std::span<double>(x));
      EXPECT_EQ(many_c[c].converged, one.converged) << "wave=" << wave << " c=" << c;
      EXPECT_EQ(many_c[c].iterations, one.iterations) << "wave=" << wave << " c=" << c;
      ASSERT_EQ(many_c[c].history.size(), one.history.size()) << "wave=" << wave << " c=" << c;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(Xc[static_cast<std::size_t>(c) * n + i], x[i])
            << "wave=" << wave << " c=" << c << " i=" << i;
    }
  }
}

// ------------------------------------------------- workspace lifecycle

TEST(BatchedSolve, WorkspaceReuseAcrossTwoMatricesNoRealloc) {
  // Two different matrices of the same size: the second tuple build +
  // batched solve must not grow the shared workspace at all.
  auto p1 = prepare_standin("hpcg_4_4_4", 1);
  auto p2 = prepare_standin("hpgmp_4_4_4", 1);
  ASSERT_EQ(p1.b.size(), p2.b.size());
  auto m1 = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p1);
  auto m2 = registry().make_precond(parse_precond_spec("bj;nblocks=4"), p2);
  const std::size_t n = p1.b.size();
  const int k = 2;
  const auto B = batch_rhs(p1, k);
  std::vector<double> X(n * k, 0.0);
  const auto term = f3r_termination(1e-8);

  SolverWorkspace ws;
  {
    NestedSolver s1(p1.a, m1, f3r_config(Prec::FP16), &ws);
    auto r1 = s1.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                            static_cast<std::ptrdiff_t>(n), k, term);
    for (const auto& r : r1) EXPECT_TRUE(test::converged(r));
  }
  const auto allocs_after_first = ws.allocations();
  const auto bytes_after_first = ws.bytes();
  EXPECT_GT(allocs_after_first, 0u);

  {
    std::fill(X.begin(), X.end(), 0.0);
    NestedSolver s2(p2.a, m2, f3r_config(Prec::FP16), &ws);
    auto r2 = s2.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                            static_cast<std::ptrdiff_t>(n), k, term);
    for (const auto& r : r2) EXPECT_TRUE(test::converged(r));
  }
  EXPECT_EQ(ws.allocations(), allocs_after_first)
      << "second same-shape tuple build re-allocated workspace memory";
  EXPECT_EQ(ws.bytes(), bytes_after_first);
}

TEST(BatchedSolve, RepeatedSolveManyZeroAllocation) {
  const auto a = test::scaled_laplace2d(20, 20);
  const std::size_t n = static_cast<std::size_t>(a.nrows);
  JacobiPrecond jac(a);
  CsrOperator<double, double> op(a);
  auto h = jac.make_apply<double>(Prec::FP64);
  SolverWorkspace ws;
  CgSolver<double> solver({.rtol = 1e-8, .max_iters = 500}, &ws, "cg");
  solver.setup(op, *h);

  const int k = 4;
  const auto B = make_batch(n, k, 71);
  std::vector<double> X(n * k, 0.0);
  solver.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                    static_cast<std::ptrdiff_t>(n), k);
  const auto allocs = ws.allocations();
  std::fill(X.begin(), X.end(), 0.0);
  solver.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                    static_cast<std::ptrdiff_t>(n), k);
  EXPECT_EQ(ws.allocations(), allocs) << "second solve_many allocated workspace memory";
  // A smaller batch must also reuse the k=4 slabs.
  solver.solve_many(B.data(), static_cast<std::ptrdiff_t>(n), X.data(),
                    static_cast<std::ptrdiff_t>(n), 2);
  EXPECT_EQ(ws.allocations(), allocs);
}

}  // namespace
}  // namespace nk
