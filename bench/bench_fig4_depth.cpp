// Figure 4 reproduction: nesting depth — F2, fp16-F2, F3, fp16-F3, F4
// (Table 4 configurations) relative to fp16-F3R.
//
// Validates the two assumptions of Section 4.1:
//   (i)  splitting FGMRES into nested FGMRES barely changes convergence
//        (F2 vs F3 vs F4 invocation counts similar), and
//   (ii) the innermost F^2 can be replaced by R^2 (F4 vs fp16-F3R similar
//        convergence, fp16-F3R faster by skipping the Arnoldi process);
// plus the negative result that fp16 across 64 or 8 inner FGMRES
// iterations (fp16-F2 / fp16-F3) overflows the format and stalls.
#include "bench_common.hpp"
#include "core/variants.hpp"

using namespace nk;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  auto cfg = bench::parse_bench_options(
      opt, {"hpcg_5_5_5", "thermal2", "hpgmp_5_5_5", "atmosmodd"});
  bench::print_header("Figure 4 — nesting depth (Table 4 variants) vs fp16-F3R", cfg);

  Table t({"matrix", "solver", "rel-conv-speed", "rel-performance", "M-applies", "time[s]",
           "conv"});
  for (const auto& name : cfg.matrices) {
    auto p = prepare_standin(name, cfg.scale, 7, cfg.use_sell());
    auto m = bench::bj_primary(p, cfg);
    auto nested = [&](const NestedConfig& nc) {
      return Session(borrow_problem(p), nc, f3r_termination(cfg.rtol), m).solve();
    };

    const auto base = bench::best_of(cfg.runs, [&] {
      return nested(f3r_config(Prec::FP16));
    });
    t.add_row({name, "fp16-F3R", "1.00", "1.00",
               base.converged
                   ? Table::fmt_int(static_cast<long long>(base.precond_invocations))
                   : "-",
               Table::fmt(base.seconds, 3), base.converged ? "yes" : "NO"});

    for (const auto& vname : variant_names()) {
      const auto r = bench::best_of(cfg.runs, [&] {
        return nested(variant_config(vname));
      });
      if (!r.converged || !base.converged) {
        t.add_row({name, vname, "-", "-", "-", Table::fmt(r.seconds, 3),
                   r.converged ? "yes" : "NO"});
        continue;
      }
      const double conv = static_cast<double>(base.precond_invocations) /
                          static_cast<double>(r.precond_invocations);
      t.add_row({name, vname, Table::fmt(conv, 2), Table::fmt(base.seconds / r.seconds, 2),
                 Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                 Table::fmt(r.seconds, 3), "yes"});
    }
  }
  bench::finish_table(t, cfg);
  std::cout << "expected shape (paper Fig. 4): F4 ≈ fp16-F3R in convergence but slower;\n"
               "F2 converges slightly faster but runs slower (Arnoldi cost); fp16-F2 and\n"
               "often fp16-F3 lose convergence speed (fp16 over long inner iterations).\n";
  return 0;
}
