// nk::Session facade tests: agreement with the hand-wired solver layers
// (the MatchesLegacy* tests pin that the facade adds no numerical behavior
// of its own — equivalence with the PRE-descriptor implementations is
// pinned separately by the committed conformance baseline), per-column
// batched/sequential agreement through the facade, workspace reuse across
// repeated solves, and the custom-NestedConfig escape hatch.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "core/f3r.hpp"
#include "core/session.hpp"
#include "krylov/cg.hpp"
#include "support/problems.hpp"

namespace nk {
namespace {

PreparedProblem sym_problem() {
  return prepare_problem("s", test::laplace2d(12, 12), true, 1.0, 1.0, 2);
}

PreparedProblem nonsym_problem() {
  return prepare_problem("n", test::scaled_convdiff2d(12, 4.0), false, 1.0, 1.0, 2);
}

// The MatchesLegacy* tests solve once through Session and once through the
// pre-descriptor spelling: solver objects wired by hand on the Session's
// backend, or (where the restart loop lives in the engine itself) a
// caller-owned M lent through borrow_precond against M built from the spec.

TEST(Session, MatchesLegacyRunCgExactly) {
  const auto p = sym_problem();
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  Session s(p, SolverSpec::parse("cg@fp16"), borrow_precond(*m));
  std::vector<double> x(p.b.size(), 0.0);
  const auto via_session = s.solve(p.b, x);

  // fp64 CG over an fp16-stored M.
  SolverWorkspace ws;
  ws.set_backend(s.backend());
  auto op = p.a->make_operator<double>(Prec::FP64, s.backend());
  auto h = m->make_apply<double>(Prec::FP16);
  h->set_backend(s.backend());
  CgSolver<double> cg(*op, *h, {.record_history = true}, &ws);
  std::vector<double> x_legacy(p.b.size(), 0.0);
  const auto legacy = cg.solve(p.b, x_legacy);

  EXPECT_EQ(via_session.solver, "fp16-CG");
  EXPECT_EQ(via_session.iterations, legacy.iterations);
  EXPECT_EQ(via_session.converged, legacy.converged);
  EXPECT_EQ(via_session.history, legacy.history);
  EXPECT_EQ(x, x_legacy);
}

TEST(Session, MatchesLegacyFgmresAndIrGmres) {
  const auto p = nonsym_problem();
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  const auto fg_legacy =
      Session(p, SolverSpec::parse("fgmres16@fp32"), borrow_precond(*m)).solve();
  const auto fg = Session(p, SolverSpec::parse("fgmres16@fp32/bj;nblocks=2")).solve();
  EXPECT_EQ(fg.solver, "fp32-FGMRES(16)");
  EXPECT_EQ(fg.iterations, fg_legacy.iterations);
  EXPECT_DOUBLE_EQ(fg.final_relres, fg_legacy.final_relres);

  const auto ir_legacy =
      Session(p, SolverSpec::parse("ir-gmres8@fp32"), borrow_precond(*m)).solve();
  const auto ir = Session(p, SolverSpec::parse("ir-gmres8@fp32/bj;nblocks=2")).solve();
  EXPECT_EQ(ir.solver, "fp32-IR-GMRES(8)");
  EXPECT_EQ(ir.iterations, ir_legacy.iterations);
  EXPECT_DOUBLE_EQ(ir.final_relres, ir_legacy.final_relres);
}

TEST(Session, MatchesLegacyNested) {
  const auto p = sym_problem();
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  Session s(p, SolverSpec::parse("f3r@fp16"), m);
  std::vector<double> x(p.b.size(), 0.0);
  const auto via_spec = s.solve(p.b, x);

  SolverWorkspace ws;
  ws.set_backend(s.backend());
  NestedSolver nested(p.a, m, f3r_config(Prec::FP16), &ws);
  std::vector<double> x_legacy(p.b.size(), 0.0);
  const auto legacy = nested.solve(p.b, x_legacy, f3r_termination());

  EXPECT_EQ(via_spec.solver, "fp16-F3R");
  EXPECT_EQ(via_spec.iterations, legacy.iterations);
  EXPECT_EQ(via_spec.converged, legacy.converged);
  EXPECT_EQ(x, x_legacy);
}

TEST(Session, BuildsPrecondFromSpecAlone) {
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse("krylov@fp16/bj;nblocks=4"));
  EXPECT_EQ(s.precond().name(), "bj-ic0");  // bj auto-selects IC(0) on SPD
  EXPECT_EQ(s.solver_name(), "fp16-CG");
  const auto r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.final_relres, 1.5e-8);
  EXPECT_EQ(r.precond_invocations, static_cast<std::uint64_t>(r.iterations));
}

/// The facade preserves the batched/sequential bit-identity contract:
/// solve_many columns reproduce per-column solve() exactly at any thread
/// count, across plain and waved scheduling specs.
TEST(Session, SolveManyColumnsMatchSequentialSolves) {
  const auto p = sym_problem();
  const std::size_t n = p.b.size();
  const int k = 5;
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  const std::vector<double> B = batch_rhs(p, k, 11);

  for (const char* spec : {"cg", "cg;wave=2"}) {
    SCOPED_TRACE(spec);
    Session batched(p, SolverSpec::parse(spec), m);
    std::vector<double> X(n * k, 0.0);
    const auto many = batched.solve_many(std::span<const double>(B), std::span<double>(X), k);
    ASSERT_EQ(many.size(), static_cast<std::size_t>(k));

    Session seq(p, SolverSpec::parse("cg"), m);
    for (int c = 0; c < k; ++c) {
      std::vector<double> x(n, 0.0);
      const auto one = seq.solve(std::span<const double>(B.data() + c * n, n),
                                 std::span<double>(x));
      EXPECT_EQ(many[c].iterations, one.iterations) << "column " << c;
      EXPECT_EQ(many[c].converged, one.converged) << "column " << c;
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(X[c * n + i], x[i]) << "column " << c << " row " << i;
    }
  }
}

TEST(Session, SolveManyNestedAndSequentialKindsWork) {
  const auto p = sym_problem();
  const std::size_t n = p.b.size();
  const int k = 3;
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  const std::vector<double> B = batch_rhs(p, k, 11);
  for (const char* spec : {"f3r@fp16", "fgmres16"}) {
    SCOPED_TRACE(spec);
    Session s(p, SolverSpec::parse(spec), m);
    std::vector<double> X(n * k, 0.0);
    const auto many = s.solve_many(std::span<const double>(B), std::span<double>(X), k);
    ASSERT_EQ(many.size(), static_cast<std::size_t>(k));
    for (const auto& r : many) EXPECT_TRUE(r.converged) << r.solver;
  }
}

TEST(Session, RepeatedSolvesReuseTheWorkspace) {
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse("f3r@fp32/bj;nblocks=2"));
  const auto r1 = s.solve();
  const auto allocs = s.workspace().allocations();
  EXPECT_GT(allocs, 0u);  // first solve acquired the level buffers
  const auto r2 = s.solve();
  EXPECT_EQ(s.workspace().allocations(), allocs);  // second solve: zero new slabs
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.converged, r2.converged);
}

TEST(Session, CustomNestedConfigEscapeHatch) {
  const auto p = sym_problem();
  auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
  NestedConfig cfg = f3r_config(Prec::FP32);
  cfg.name = "custom-f3r";
  cfg.levels[1].inner_rtol = 0.1;  // not expressible in the spec grammar
  Session s(p, cfg, f3r_termination(), m);
  const auto r = s.solve();
  SolverWorkspace ws;
  ws.set_backend(s.backend());
  std::vector<double> x(p.b.size(), 0.0);
  const auto direct = NestedSolver(p.a, m, cfg, &ws).solve(p.b, x, f3r_termination());
  EXPECT_EQ(r.solver, "custom-f3r");
  EXPECT_EQ(r.iterations, direct.iterations);
  EXPECT_EQ(r.converged, direct.converged);
}

TEST(Session, BorrowedProblemAvoidsCopyAndMatchesOwned) {
  const auto p = sym_problem();
  Session owned(p, SolverSpec::parse("cg/jacobi"));
  Session borrowed(borrow_problem(p), SolverSpec::parse("cg/jacobi"));
  EXPECT_EQ(&borrowed.problem(), &p);   // shares the caller's object
  EXPECT_NE(&owned.problem(), &p);      // owns a copy
  const auto r1 = owned.solve();
  const auto r2 = borrowed.solve();
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_DOUBLE_EQ(r1.final_relres, r2.final_relres);
}

TEST(Session, BorrowedPrecondSharesInvocationCounter) {
  const auto p = sym_problem();
  auto m = registry().make_precond(parse_precond_spec("jacobi"), p);
  const auto before = m->invocations();
  Session s(p, SolverSpec::parse("cg"), borrow_precond(*m));
  const auto r = s.solve();
  EXPECT_EQ(m->invocations() - before, r.precond_invocations);
  EXPECT_GT(r.precond_invocations, 0u);
}

TEST(Session, MakeRhsBatchMatchesBatchRhs) {
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse("cg/jacobi"));
  EXPECT_EQ(s.make_rhs_batch(3, 7), batch_rhs(p, 3, 7));
  // Column 0 with the problem's own seed reproduces p.b.
  EXPECT_EQ(s.make_rhs_batch(1, 2), p.b);
}

// ---------------------------------------------------------------------------
// Concurrency contract: a Session is single-solver-at-a-time; the loser of
// an overlapping solve fails fast with kInvalidInput/"concurrent-use"
// (session.hpp).  Deterministic via a preconditioner whose first apply
// parks the in-flight solve on a gate while the main thread probes.
// ---------------------------------------------------------------------------

struct SolveGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
};

class GatedPreconditioner final : public Preconditioner<double> {
 public:
  GatedPreconditioner(std::unique_ptr<Preconditioner<double>> inner,
                      std::shared_ptr<SolveGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  void apply(std::span<const double> r, std::span<double> z) override {
    if (!blocked_once_) {
      blocked_once_ = true;
      std::unique_lock<std::mutex> lock(gate_->mu);
      gate_->entered = true;
      gate_->cv.notify_all();
      gate_->cv.wait(lock, [&] { return gate_->release; });
    }
    inner_->apply(r, z);
  }
  [[nodiscard]] index_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<Preconditioner<double>> inner_;
  std::shared_ptr<SolveGate> gate_;
  bool blocked_once_ = false;
};

class GatedPrimary final : public PrimaryPrecond {
 public:
  GatedPrimary(std::shared_ptr<PrimaryPrecond> inner, std::shared_ptr<SolveGate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] index_t size() const override { return inner_->size(); }
  std::unique_ptr<Preconditioner<double>> make_apply_fp64(Prec storage) override {
    return std::make_unique<GatedPreconditioner>(inner_->make_apply_fp64(storage), gate_);
  }
  std::unique_ptr<Preconditioner<float>> make_apply_fp32(Prec storage) override {
    return inner_->make_apply_fp32(storage);
  }
  std::unique_ptr<Preconditioner<half>> make_apply_fp16(Prec storage) override {
    return inner_->make_apply_fp16(storage);
  }

 private:
  std::shared_ptr<PrimaryPrecond> inner_;
  std::shared_ptr<SolveGate> gate_;
};

TEST(Session, ConcurrentSolveFailsFastNotCorrupts) {
  const auto p = sym_problem();
  auto real = registry().make_precond(parse_precond_spec("jacobi"), p);
  auto gate = std::make_shared<SolveGate>();
  Session s(p, SolverSpec::parse("cg"),
            std::make_shared<GatedPrimary>(borrow_precond(*real), gate));

  std::vector<double> x1(p.b.size(), 0.0);
  SolveResult winner;
  std::thread solver([&] { winner = s.solve(p.b, x1); });
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }

  // The solve slot is provably held: every overlapping call loses fast.
  const SolveResult loser = s.solve();
  EXPECT_EQ(loser.status, SolveStatus::kInvalidInput);
  EXPECT_EQ(loser.failure, "concurrent-use");
  EXPECT_FALSE(loser.converged);

  const auto B = s.make_rhs_batch(2);
  std::vector<double> X(B.size(), 0.0);
  const auto losers = s.solve_many(B, X, 2);
  ASSERT_EQ(losers.size(), 2u);
  for (const auto& r : losers) {
    EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
    EXPECT_EQ(r.failure, "concurrent-use");
  }

  {
    const std::lock_guard<std::mutex> lock(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();
  solver.join();
  EXPECT_TRUE(winner.converged) << summarize(winner);

  // The slot is released: the Session is fully usable again.
  const SolveResult after = s.solve();
  EXPECT_TRUE(after.converged) << summarize(after);
}

// Two Sessions on one shared PreparedProblem (what two nkrylovd executor
// workers do for two specs on one handle) build their first fp32
// operators at the same moment, and two handles of one shared M mint its
// fp16 copy at the same moment.  Every result must equal, bit for bit, the
// same work done one call after another.  The forced-team re-run of this
// suite puts these cases in the CI TSan job, which reports any
// unsynchronised minting as a race.
template <class Fn>
void run_pair(bool concurrent, Fn&& first, Fn&& second) {
  if (!concurrent) {
    first();
    second();
    return;
  }
  std::latch start(2);
  std::thread t([&] {
    start.arrive_and_wait();
    first();
  });
  start.arrive_and_wait();
  second();
  t.join();
}

TEST(SharedProblemMint, ConcurrentSessionsMatchSequentialSolves) {
  const auto solve_both = [](bool concurrent) {
    const auto p = std::make_shared<const PreparedProblem>(sym_problem());
    std::vector<std::vector<double>> x(2, std::vector<double>(p->b.size(), 0.0));
    std::vector<SolveResult> res(2);
    const auto job = [&](int i, const char* spec) {
      return std::function<void()>([&, i, spec] {
        Session s(p, SolverSpec::parse(spec));
        res[i] = s.solve(p->b, x[i]);
      });
    };
    run_pair(concurrent, job(0, "f3r@fp16"), job(1, "ir-gmres@fp32"));
    return std::pair(x, res);
  };
  const auto [xs, seq] = solve_both(false);
  const auto [xc, con] = solve_both(true);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(seq[i].converged) << summarize(seq[i]);
    EXPECT_EQ(con[i].iterations, seq[i].iterations);
    EXPECT_EQ(con[i].final_relres, seq[i].final_relres);
    EXPECT_EQ(xc[i], xs[i]) << "column " << i;
  }
}

TEST(SharedProblemMint, ConcurrentHandlesOfOneSharedM) {
  const auto p = sym_problem();
  const auto r = random_vector<double>(p.b.size(), 3, -1.0, 1.0);
  const auto apply_both = [&](bool concurrent) {
    auto m = registry().make_precond(parse_precond_spec("bj;nblocks=2"), p);
    std::unique_ptr<Preconditioner<float>> hf;
    std::unique_ptr<Preconditioner<half>> hh;
    run_pair(concurrent,
             std::function<void()>([&] { hf = m->make_apply<float>(Prec::FP16); }),
             std::function<void()>([&] { hh = m->make_apply<half>(Prec::FP16); }));
    const auto rf = converted<float>(r);
    const auto rh = converted<half>(r);
    std::vector<float> zf(r.size());
    std::vector<half> zh(r.size());
    hf->apply(std::span<const float>(rf), std::span<float>(zf));
    hh->apply(std::span<const half>(rh), std::span<half>(zh));
    return std::pair(zf, converted<double>(zh));
  };
  const auto [fs, hs] = apply_both(false);
  const auto [fc, hc] = apply_both(true);
  EXPECT_EQ(fc, fs);
  EXPECT_EQ(hc, hs);
}

TEST(Session, ThrowsSpecErrorOnUnknownKinds) {
  const auto p = sym_problem();
  SolverSpec bad;
  bad.kind = "petsc-ksp";  // programmatic spec skipping parse() validation
  EXPECT_THROW(Session(p, bad), SpecError);
  SolverSpec badpc = SolverSpec::parse("cg");
  badpc.precond.kind = "ilut";
  EXPECT_THROW(Session(p, badpc), SpecError);
}

struct BackendEnvGuard {
  ~BackendEnvGuard() { ::unsetenv("NKRYLOV_BACKEND"); }
  static void set(const char* v) { ::setenv("NKRYLOV_BACKEND", v, 1); }
};

TEST(Session, BackendResolutionOrderIsSpecThenEnvThenHost) {
  const BackendEnvGuard guard;
  const auto p = sym_problem();
  // Default: host.
  ::unsetenv("NKRYLOV_BACKEND");
  EXPECT_EQ(Session(p, SolverSpec::parse("cg")).backend(), Backend::kHost);
  // Env overrides the default ("omp" aliases host).
  BackendEnvGuard::set("serial");
  EXPECT_EQ(Session(p, SolverSpec::parse("cg")).backend(), Backend::kSerial);
  BackendEnvGuard::set("omp");
  EXPECT_EQ(Session(p, SolverSpec::parse("cg")).backend(), Backend::kHost);
  // Spec overrides the env, whichever spelling.
  BackendEnvGuard::set("host");
  EXPECT_EQ(Session(p, SolverSpec::parse("cg;backend=serial")).backend(),
            Backend::kSerial);
  BackendEnvGuard::set("serial");
  EXPECT_EQ(Session(p, SolverSpec::parse("cg:host")).backend(), Backend::kHost);
  // And the env-selected backend actually solves.
  Session s(p, SolverSpec::parse("cg"));
  EXPECT_EQ(s.backend(), Backend::kSerial);
  const SolveResult r = s.solve();
  EXPECT_TRUE(r.converged) << summarize(r);
}

TEST(Session, UnknownBackendEnvFailsFastNotSilently) {
  // An unknown NKRYLOV_BACKEND must never silently run on host: the
  // Session builds (construction stays throw-free for env problems) but
  // every solve fails fast with kInvalidInput naming the backend — the
  // library-path twin of the CLI front-ends' exit(2).
  const BackendEnvGuard guard;
  BackendEnvGuard::set("cuda");
  const auto p = sym_problem();
  Session s(p, SolverSpec::parse("cg"));
  const SolveResult r = s.solve();
  EXPECT_EQ(r.status, SolveStatus::kInvalidInput);
  EXPECT_NE(r.failure.find("backend"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find("cuda"), std::string::npos) << r.failure;
  std::vector<double> B(p.b.size() * 2), X(p.b.size() * 2);
  for (const SolveResult& c : s.solve_many(B, X, 2))
    EXPECT_EQ(c.status, SolveStatus::kInvalidInput);
  // A spec-level backend sidesteps the poisoned environment entirely.
  Session ok(p, SolverSpec::parse("cg;backend=serial"));
  EXPECT_EQ(ok.backend(), Backend::kSerial);
  EXPECT_TRUE(ok.solve().converged);
}

TEST(Session, SerialBackendSolvesMatchHostWithinTolerance) {
  // The serial backend is an independently written reference: same
  // algorithm, single-chain reductions.  Iterate streams may differ in
  // rounding, but both must converge to the same rtol on the same problem
  // and report the same solver name.
  const auto p = sym_problem();
  for (const char* spec : {"cg@fp16", "fgmres32", "f3r@fp16"}) {
    SCOPED_TRACE(spec);
    const SolveResult host = Session(p, SolverSpec::parse(spec)).solve();
    const SolveResult serial =
        Session(p, SolverSpec::parse(std::string(spec) + ";backend=serial")).solve();
    EXPECT_EQ(host.solver, serial.solver);
    EXPECT_TRUE(host.converged) << summarize(host);
    EXPECT_TRUE(serial.converged) << summarize(serial);
    EXPECT_LE(serial.final_relres, 1e-8);
  }
}

}  // namespace
}  // namespace nk
