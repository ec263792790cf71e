// Memory-access model (Equations (1)-(3)) tables and the nesting advisor,
// reproducing the Section 4.1 reasoning that derives F3R — including the
// paper's worked example (cA = 45, m = 64, minimizer m̄ = 10) — and then
// cross-checking the model against MEASURED per-invocation data volumes.
#include "bench_common.hpp"
#include "core/cost_model.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(opt, {"hpcg_5_5_5"});
  bench::print_header("Equations (1)-(3) — memory-access model + nesting advisor", cfg);

  // 1. The paper's worked example.
  print_banner(std::cout, "paper example: cA = cM = 45 (30 nnz/row fp64), m = 64");
  {
    const double ca = 45.0, cm = 45.0;
    Table t({"m_outer", "O(F,F)  Eq(2)", "O(F,R)  Eq(3)", "vs flat O(F^64)"});
    const double flat = cost_fgmres(ca, cm, 64);
    for (int mo : {2, 4, 6, 8, 10, 12, 16, 24, 32}) {
      const double mi = 64.0 / mo;
      const double ff = cost_nested_ff(ca, cm, mo, mi);
      const double fr = cost_nested_fr(ca, cm, mo, mi);
      t.add_row({Table::fmt_int(mo), Table::fmt(ff, 0), Table::fmt(fr, 0),
                 Table::fmt(ff / flat, 2)});
    }
    t.print(std::cout);
    std::cout << "flat O(F^64, M) = " << Table::fmt(flat, 0) << "\n";
    std::cout << "advisor: " << advice_summary(advise_split(ca, cm, 64, 1)) << " (FGMRES only)\n";
    std::cout << "advisor: " << advice_summary(advise_split(ca, cm, 64)) << "\n";
  }

  // 2. Model of the actual F3R configuration per precision.
  print_banner(std::cout, "modelled accesses per 64 primary applications (per row of A)");
  {
    Table t({"config", "cA basis", "accesses", "vs fp64 flat F^64"});
    const double nnzr = 26.6;  // HPCG-like
    const double flat64 = cost_fgmres(access_constant(nnzr, 8), access_constant(nnzr, 8), 64);
    struct Row {
      const char* name;
      std::size_t bytes;
    };
    for (const Row& r : {Row{"fp64-F3R (F8,F4,R2)", 8}, Row{"fp32-F3R", 4},
                         Row{"fp16-F3R", 2}}) {
      const double ca = access_constant(nnzr, r.bytes);
      const double c = cost_nested(ca, ca, {{'F', 8}, {'F', 4}, {'R', 2}});
      t.add_row({r.name, Table::fmt(ca, 1), Table::fmt(c, 0), Table::fmt(flat64 / c, 2) + "x"});
    }
    t.print(std::cout);
  }

  // 3. Advisor across nnz/row regimes (Table 2 spans ~4 to ~82 nnz/row).
  print_banner(std::cout, "nesting advice across sparsity regimes (m = 64)");
  {
    Table t({"nnz/row", "cA(fp64)", "advice"});
    for (double nnzr : {4.0, 7.0, 27.0, 45.0, 82.0}) {
      const double ca = access_constant(nnzr, 8);
      t.add_row({Table::fmt(nnzr, 0), Table::fmt(ca, 1),
                 advice_summary(advise_split(ca, ca, 64))});
    }
    t.print(std::cout);
  }

  // 4. Cross-check against a measured problem: count real SpMV/M-apply
  // volumes of one outer F3R iteration.
  print_banner(std::cout, "model vs measured bytes per outer iteration (fp16-F3R)");
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    const auto res = Session(borrow_problem(p), f3r_config(Prec::FP16),
                             f3r_termination(cfg.rtol), bench::bj_primary(p, cfg))
                         .solve();
    if (!res.converged || res.iterations == 0) continue;
    const double applies_per_outer =
        static_cast<double>(res.precond_invocations) / res.iterations;
    std::cout << name << ": " << Table::fmt(applies_per_outer, 1)
              << " M-applies per outer iteration (model: m2*m3*m4 = 64), "
              << res.iterations << " outer its, relres "
              << Table::fmt_sci(res.final_relres) << "\n";
  }
  return 0;
}
