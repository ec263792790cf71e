// bench_paper — reproduces the paper's figures and tables, one subcommand
// each:
//
//   bench_paper fig1 [flags]   Figure 1 (CPU node) and Table 3's counts
//   bench_paper fig2 [flags]   Figure 2 (GPU node, simulated)
//   bench_paper fig3 ... fig6  Figures 3-6: fp16-F3R against its variants
//   bench_paper ablation       design choices beyond the paper's figures
//   bench_paper matrices       Table 2, the test-matrix inventory
//   bench_paper cost-model     Equations (1)-(3) and the nesting advisor
//
// Flags are listed in bench_common.hpp; `bench_paper --help` prints which
// ones each subcommand honours.
#include <initializer_list>
#include <iomanip>
#include <type_traits>
#include <utility>

#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "core/variants.hpp"
#include "sparse/stats.hpp"

using namespace nk;
using bench::BenchConfig;

namespace {

constexpr Prec kPrecs[] = {Prec::FP64, Prec::FP32, Prec::FP16};

std::string count_cell(const SolveResult& r) {
  return r.converged ? Table::fmt_int(static_cast<long long>(r.precond_invocations)) : "-";
}

/// `nc` under F3R's termination at --rtol with primary `m`, fastest of --runs.
SolveResult nested(const PreparedProblem& p, const NestedConfig& nc,
                   const std::shared_ptr<PrimaryPrecond>& m, const BenchConfig& c) {
  return bench::best_of(c.runs, [&] {
    return Session(borrow_problem(p), nc, f3r_termination(c.rtol), m).solve();
  });
}

// ---------------------------------------------------------------------------
// Figures 1 and 2: the full solver set on one node configuration.

struct Node {
  const char* label;
  bool use_sell;
  const char* primary;  ///< registry spec of the primary preconditioner
  const char* paper_fp32;
  const char* paper_fp16;
};

constexpr Node kCpu{"CPU node: CSR + block-Jacobi ILU(0)/IC(0)", false, "bj", "~1.46x",
                    "1.59-2.42x"};
constexpr Node kGpu{"GPU node (simulated): SELL-32 + SD-AINV", true, "sd-ainv", "~1.34x",
                    "~1.55x"};

void solver_set(const BenchConfig& c, const Node& node) {
  std::cout << "node: " << node.label << "\n";
  Table summary({"matrix", "sym", "fp64-F3R[s]", "fp32-F3R", "fp16-F3R", "fp64-KRY",
                 "fp32-KRY", "fp16-KRY", "fp64-FG64", "fp32-FG64", "fp16-FG64", "best",
                 "best-params"});
  Table counts({"matrix", "CG/BiCGStab", "fp64-FGMRES(64)", "fp64-F3R", "fp32-F3R",
                "fp16-F3R"});
  std::vector<double> sp32, sp16;  // speedup collections for the closing summary

  for (const auto& name : c.matrices) {
    auto p = prepare_standin(name, c.scale, 7, node.use_sell);
    auto m = bench::primary(p, node.primary, c);
    // F3R, then CG/BiCGStab, then FGMRES(64), each at fp64, fp32, fp16.
    std::vector<SolveResult> rs;
    for (Prec prec : kPrecs) rs.push_back(nested(p, f3r_config(prec), m, c));
    for (const char* kind : {"krylov", "fgmres64"})
      for (Prec prec : kPrecs)
        rs.push_back(bench::best_of(c.runs, [&] {
          return Session(borrow_problem(p), bench::flat_spec(kind, prec, c), m).solve();
        }));
    const SolveResult& base = rs[0];

    std::vector<std::string> row{name, p.symmetric ? "y" : "n",
                                 base.converged ? Table::fmt(base.seconds, 3) : "FAIL"};
    for (std::size_t i = 1; i < rs.size(); ++i) row.push_back(bench::speedup_cell(base, rs[i]));
    if (c.best) {
      const auto best = run_f3r_best(p, m, c.rtol, 10);
      row.push_back(bench::speedup_cell(base, best.result));
      row.push_back(best.param_label);
    } else {
      row.insert(row.end(), {"-", "-"});
    }
    summary.add_row(std::move(row));
    counts.add_row({name, count_cell(rs[3]), count_cell(rs[6]), count_cell(rs[0]),
                    count_cell(rs[1]), count_cell(rs[2])});
    if (base.converged && rs[1].converged) sp32.push_back(base.seconds / rs[1].seconds);
    if (base.converged && rs[2].converged) sp16.push_back(base.seconds / rs[2].seconds);

    std::cout << "\n-- " << name << " (n=" << p.a->size()
              << ", nnz=" << p.a->csr_fp64().nnz() << ", M=" << m->name() << ") --\n";
    Table detail({"solver", "conv", "outer-its", "M-applies", "time[s]", "relres"});
    for (const auto& r : rs)
      detail.add_row({r.solver, r.converged ? "yes" : "NO", Table::fmt_int(r.iterations),
                      Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                      Table::fmt(r.seconds, 3), Table::fmt_sci(r.final_relres)});
    detail.print(std::cout);
  }

  print_banner(std::cout, "summary (values are speedup over fp64-F3R; best = least "
                          "modeled work in the m2-m3-m4 box)");
  bench::finish_table(summary, c);
  if (!sp32.empty())
    std::cout << "geomean speedup fp32-F3R over fp64-F3R: " << Table::fmt(geomean(sp32), 2)
              << "x (paper: " << node.paper_fp32 << ")\n";
  if (!sp16.empty())
    std::cout << "geomean speedup fp16-F3R over fp64-F3R: " << Table::fmt(geomean(sp16), 2)
              << "x (paper: " << node.paper_fp16 << ")\n";
  std::cout << "note: fp16 gains require the working set to exceed the last-level cache;\n"
               "      increase --scale to enter the paper's memory-bound regime.\n";

  print_banner(std::cout, "primary preconditioner invocations until convergence "
                          "(Table 3 on the CPU node; - = not converged)");
  counts.print(std::cout);
  std::cout << "expected shape (paper Table 3): the three F3R columns agree within a few\n"
               "percent; F3R needs fewer invocations than FGMRES(64) on hard problems and\n"
               "somewhat more than CG/BiCGStab on easy ones (64-invocation granularity).\n";
}

// ---------------------------------------------------------------------------
// Figures 3-6: fp16-F3R against a labelled list of variants.  Ratios > 1
// mean the variant beat fp16-F3R: rel-conv-speed is in M-applies,
// rel-performance in time.

using Variants = std::vector<std::pair<std::string, NestedConfig>>;

void sweep(const BenchConfig& c, const std::string& base_label, const Variants& variants,
           const char* expected) {
  Table t({"matrix", "variant", "rel-conv-speed", "rel-performance", "M-applies", "time[s]",
           "conv"});
  for (const auto& name : c.matrices) {
    auto p = prepare_standin(name, c.scale, 7, c.use_sell());
    auto m = bench::primary(p, "bj", c);
    const auto base = nested(p, f3r_config(Prec::FP16), m, c);
    const auto row = [&](const std::string& label, const SolveResult& r) {
      const bool both = base.converged && r.converged;
      const double conv = static_cast<double>(base.precond_invocations) /
                          static_cast<double>(r.precond_invocations);
      t.add_row({name, label, both ? Table::fmt(conv, 2) : "-",
                 both ? Table::fmt(base.seconds / r.seconds, 2) : "-", count_cell(r),
                 Table::fmt(r.seconds, 3), r.converged ? "yes" : "NO"});
    };
    row(base_label, base);
    for (const auto& [label, nc] : variants) row(label, nested(p, nc, m, c));
  }
  bench::finish_table(t, c);
  std::cout << expected;
}

/// fp16-F3R with `set(params, v)` applied, for each v, labelled `key=v`.
template <class T, class Set>
void add_f3r(Variants& out, const std::string& key, std::initializer_list<T> values,
             Set set) {
  for (T v : values) {
    F3rParams prm;
    set(prm, v);
    out.emplace_back(key + (key.empty() ? "" : "=") +
                         (std::is_integral_v<T> ? std::to_string(v) : Table::fmt(v, 1)),
                     f3r_config(Prec::FP16, prm));
  }
}

void fig3(const BenchConfig& c) {
  Variants v;
  add_f3r(v, "m4", {1, 3, 4}, [](F3rParams& p, int x) { p.m4 = x; });
  add_f3r(v, "m3", {2, 3, 5, 6}, [](F3rParams& p, int x) { p.m3 = x; });
  add_f3r(v, "m2", {6, 7, 9, 10}, [](F3rParams& p, int x) { p.m2 = x; });
  sweep(c, "default(8-4-2)", v,
        "expected shape (paper Fig. 3): m4=3,4 degrade convergence AND performance;\n"
        "m4=1 sometimes converges faster but runs slower; m3 and m2 move results\n"
        "within roughly 0.5-1.4x with no clear winner.\n");
}

void fig4(const BenchConfig& c) {
  Variants v;
  for (const auto& name : variant_names()) v.emplace_back(name, variant_config(name));
  sweep(c, "fp16-F3R", v,
        "expected shape (paper Fig. 4): F4 ≈ fp16-F3R in convergence but slower;\n"
        "F2 converges slightly faster but runs slower (Arnoldi cost); fp16-F2 and\n"
        "often fp16-F3 lose convergence speed (fp16 over long inner iterations).\n");
}

void fig5(const BenchConfig& c) {
  Variants v;
  add_f3r(v, "", {1, 4, 16, 32, 128, 256}, [](F3rParams& p, int x) { p.cycle = x; });
  sweep(c, "64 (default)", v,
        "expected shape (paper Fig. 5): no strong trend; c=1 adds computation\n"
        "without better convergence; very large c slightly slows convergence but\n"
        "costs less per invocation.\n");
}

void fig6(const BenchConfig& c) {
  Variants v;
  add_f3r(v, "", {0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}, [](F3rParams& p, double w) {
    p.adaptive = false;
    p.fixed_weight = static_cast<float>(w);
  });
  sweep(c, "adaptive", v,
        "expected shape (paper Fig. 6): some static weights match or slightly beat\n"
        "adaptive on easy matrices, but static fails (or lags badly) on sensitive\n"
        "ones while adaptive never does — the stability argument for Algorithm 1.\n");
}

// ---------------------------------------------------------------------------
// Ablations: A. two-level iterative refinement (the prior-work baseline),
// B. dynamic inner termination, C. Chebyshev as the third level, D. the
// primary preconditioner under fp16-F3R.

void ablation(const BenchConfig& c) {
  Table t({"matrix", "solver", "outer-its", "M-applies", "time[s]", "conv"});
  Table tp({"matrix", "primary M", "outer-its", "M-applies", "time[s]", "conv"});
  for (const auto& name : c.matrices) {
    const auto add = [&name](Table& to, const std::string& label, const SolveResult& r) {
      to.add_row({name, label, Table::fmt_int(r.iterations),
                  Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                  Table::fmt(r.seconds, 3), r.converged ? "yes" : "NO"});
    };
    const auto row = [&](const SolveResult& r) { add(t, r.solver, r); };
    auto p = prepare_standin(name, c.scale, 7, c.use_sell());
    auto m = bench::primary(p, "bj", c);
    row(nested(p, f3r_config(Prec::FP16), m, c));
    for (Prec prec : {Prec::FP32, Prec::FP16})  // A
      row(Session(borrow_problem(p), bench::flat_spec("ir-gmres8", prec, c), m).solve());
    for (double irt : {0.5, 0.1, 0.01}) {  // B, on levels 2 and 3
      NestedConfig dyn = f3r_config(Prec::FP16);
      dyn.name = "fp16-F3R-dyn(" + Table::fmt(irt, 2) + ")";
      dyn.levels[1].inner_rtol = irt;
      dyn.levels[2].inner_rtol = irt;
      row(nested(p, dyn, m, c));
    }
    NestedConfig cheb = f3r_config(Prec::FP16);  // C
    cheb.name = "fp16-F2C-R";
    cheb.levels[2].kind = SolverKind::Chebyshev;
    cheb.levels[2].eig_ratio = 20.0;
    row(nested(p, cheb, m, c));
    for (const char* spec : {"bj", "sd-ainv", "ssor;omega=1", "neumann;degree=2", "jacobi"})
      add(tp, spec, nested(p, f3r_config(Prec::FP16), bench::primary(p, spec, c), c));
  }
  print_banner(std::cout, "A/B/C: refinement baseline, dynamic termination, Chebyshev level");
  bench::finish_table(t, c);
  print_banner(std::cout, "D: primary preconditioner sweep under fp16-F3R");
  tp.print(std::cout);
}

// ---------------------------------------------------------------------------
// Table 2 and the Section 4.1 cost model.

void table2(const BenchConfig& c) {
  Table t({"matrix", "standin", "n", "nnz", "nnz/n", "sym", "a_ILU", "a_AINV"});
  for (const auto& name : c.matrices) {
    const auto prob = gen::make_problem(name, c.scale);
    const auto s = analyze(prob.a);
    t.add_row({prob.spec.paper_name, prob.spec.exact ? "(exact generator)" : prob.spec.standin,
               Table::fmt_int(s.n), Table::fmt_int(s.nnz), Table::fmt(s.nnz_per_row, 2),
               s.numerically_symmetric ? "yes" : "no", Table::fmt(prob.spec.alpha_ilu, 1),
               Table::fmt(prob.spec.alpha_ainv, 1)});
  }
  bench::finish_table(t, c);
}

void cost_model(const BenchConfig& c) {
  // 1. The paper's worked example: cA = cM = 45, m = 64, minimizer m̄ = 10.
  print_banner(std::cout, "paper example: cA = cM = 45 (30 nnz/row fp64), m = 64");
  const double ca = 45.0, cm = 45.0;
  const double flat = cost_fgmres(ca, cm, 64);
  Table ex({"m_outer", "O(F,F)  Eq(2)", "O(F,R)  Eq(3)", "vs flat O(F^64)"});
  for (int mo : {2, 4, 6, 8, 10, 12, 16, 24, 32}) {
    const double ff = cost_nested_ff(ca, cm, mo, 64.0 / mo);
    ex.add_row({Table::fmt_int(mo), Table::fmt(ff, 0),
                Table::fmt(cost_nested_fr(ca, cm, mo, 64.0 / mo), 0),
                Table::fmt(ff / flat, 2)});
  }
  ex.print(std::cout);
  std::cout << "flat O(F^64, M) = " << Table::fmt(flat, 0) << "\n";
  std::cout << "advisor: " << advice_summary(advise_split(ca, cm, 64, 1)) << " (FGMRES only)\n";
  std::cout << "advisor: " << advice_summary(advise_split(ca, cm, 64)) << "\n";

  // 2. The F3R configuration per precision, HPCG-like 26.6 nnz/row.
  print_banner(std::cout, "modelled accesses per 64 primary applications (per row of A)");
  const double nnzr = 26.6;
  const double flat64 = cost_fgmres(access_constant(nnzr, 8), access_constant(nnzr, 8), 64);
  Table per({"config", "cA basis", "accesses", "vs fp64 flat F^64"});
  for (const auto& [label, bytes] : {std::pair{"fp64-F3R (F8,F4,R2)", 8},
                                     std::pair{"fp32-F3R", 4}, std::pair{"fp16-F3R", 2}}) {
    const double cab = access_constant(nnzr, bytes);
    const double cost = cost_nested(cab, cab, {{'F', 8}, {'F', 4}, {'R', 2}});
    per.add_row({label, Table::fmt(cab, 1), Table::fmt(cost, 0),
                 Table::fmt(flat64 / cost, 2) + "x"});
  }
  per.print(std::cout);

  // 3. The advisor across Table 2's sparsity regimes (~4 to ~82 nnz/row).
  print_banner(std::cout, "nesting advice across sparsity regimes (m = 64)");
  Table adv({"nnz/row", "cA(fp64)", "advice"});
  for (double r : {4.0, 7.0, 27.0, 45.0, 82.0}) {
    const double car = access_constant(r, 8);
    adv.add_row({Table::fmt(r, 0), Table::fmt(car, 1), advice_summary(advise_split(car, car, 64))});
  }
  adv.print(std::cout);

  // 4. Against measured solves: M-applies per outer F3R iteration.
  print_banner(std::cout, "model vs measured bytes per outer iteration (fp16-F3R)");
  for (const auto& name : c.matrices) {
    auto p = prepare_standin(name, c.scale, 7, c.use_sell());
    const auto res = nested(p, f3r_config(Prec::FP16), bench::primary(p, "bj", c), c);
    if (!res.converged || res.iterations == 0) continue;
    std::cout << name << ": "
              << Table::fmt(static_cast<double>(res.precond_invocations) / res.iterations, 1)
              << " M-applies per outer iteration (model: m2*m3*m4 = 64), " << res.iterations
              << " outer its, relres " << Table::fmt_sci(res.final_relres) << "\n";
  }
}

// ---------------------------------------------------------------------------

struct Subcommand {
  const char* name;
  const char* title;
  std::vector<std::string> matrices;  ///< default --matrices
  const char* flags;                  ///< honoured beyond --matrices and --scale
  void (*run)(const BenchConfig&);
};

constexpr const char* kSweepFlags = "rtol runs nblocks csv format";

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> subs{
      {"fig1", "Figure 1 and Table 3 — CPU node: speedup over fp64-F3R, M-applies",
       {"ecology2", "thermal2", "tmt_sym", "apache2", "audikw_1", "hpcg_5_5_5", "Transport",
        "atmosmodd", "t2em", "tmt_unsym", "hpgmp_5_5_5", "ss"},
       "rtol max-iters runs nblocks csv best",
       [](const BenchConfig& c) { solver_set(c, kCpu); }},
      {"fig2", "Figure 2 — GPU node (simulated): speedup over fp64-F3R",
       {"ecology2", "thermal2", "tmt_sym", "apache2", "hpcg_5_5_5", "Transport", "atmosmodd",
        "t2em", "tmt_unsym", "hpgmp_5_5_5"},
       "rtol max-iters runs csv best", [](const BenchConfig& c) { solver_set(c, kGpu); }},
      {"fig3", "Figure 3 — fp16-F3R vs inner iteration counts (m2, m3, m4)",
       {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5", "atmosmodd"}, kSweepFlags, fig3},
      {"fig4", "Figure 4 — nesting depth (Table 4 variants) vs fp16-F3R",
       {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5", "atmosmodd"}, kSweepFlags, fig4},
      {"fig5", "Figure 5 — adaptive weight-updating cycle c (vs c=64)",
       {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5"}, kSweepFlags, fig5},
      {"fig6", "Figure 6 — adaptive vs static Richardson weight",
       {"hpcg_5_5_5", "thermal2", "audikw_1", "hpgmp_5_5_5", "atmosmodd"}, kSweepFlags, fig6},
      {"ablation", "ablations: IR baseline, dynamic termination, Chebyshev, preconditioners",
       {"hpcg_5_5_5", "hpgmp_5_5_5", "thermal2"}, "rtol max-iters nblocks csv format",
       ablation},
      {"matrices", "Table 2 — test matrices", {"all"}, "csv", table2},
      {"cost-model", "Equations (1)-(3) — memory-access model + nesting advisor",
       {"hpcg_5_5_5"}, "rtol nblocks format", cost_model},
  };
  return subs;
}

void usage(std::ostream& os) {
  os << "usage: bench_paper <subcommand> [--matrices=a,b,...|all|sym|nonsym] [--scale=N] "
        "[flags]\n";
  for (const auto& s : subcommands())
    os << "  " << std::left << std::setw(12) << s.name << s.title << "\n"
       << std::string(14, ' ') << "flags: " << s.flags << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  if (opt.wants_help()) {
    usage(std::cout);
    return 0;
  }
  const auto& pos = opt.positional();
  const Subcommand* sub = nullptr;
  for (const auto& s : subcommands())
    if (pos.size() == 1 && pos[0] == s.name) sub = &s;
  if (sub == nullptr) {
    std::cerr << "error: "
              << (pos.empty()       ? std::string("no subcommand")
                  : pos.size() == 1 ? "unknown subcommand '" + pos[0] + "'"
                                    : "one subcommand expected, got " +
                                          std::to_string(pos.size()))
              << "; known:";
    for (const auto& s : subcommands()) std::cerr << " " << s.name;
    std::cerr << "\n";
    return 2;
  }
  const auto cfg = bench::parse_bench_options(opt, sub->matrices, sub->flags);
  bench::print_header(sub->title, cfg);
  sub->run(cfg);
  return 0;
}
