// Mixed-precision tour: run every solver family of the paper on one
// problem and print the comparison the paper's Figure 1 makes per matrix —
// fp64/fp32/fp16-F3R, fp{64,32,16}-CG (or BiCGStab when nonsymmetric), and
// fp{64,32,16}-FGMRES(64).
//
// Run:  ./mixed_precision_tour [--problem=hpcg_5_5_5] [--scale=1]
//       [--gpu-sim] (sliced-ELLPACK + SD-AINV instead of CSR + ILU/IC)
#include <iostream>

#include "base/env.hpp"
#include "base/options.hpp"
#include "base/table.hpp"
#include "core/f3r.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  nk::Options opt(argc, argv);
  if (opt.wants_help()) {
    std::cout << "usage: mixed_precision_tour [--problem=hpcg_5_5_5] [--scale=1] [--gpu-sim]\n"
                 "         [--rtol=1e-8] [--max-iters=19200]\n";
    return 0;
  }
  const std::string name = opt.get("problem", "hpcg_5_5_5");
  const int scale = opt.get_int("scale", 1);
  const bool gpu_sim = opt.get_bool("gpu-sim", false);
  const double rtol = opt.get_double("rtol", 1e-8);
  const int max_iters = opt.get_int("max-iters", 19200);
  opt.reject_unknown();

  std::cout << "nkrylov mixed-precision tour (" << nk::env_summary() << ")\n";
  nk::PreparedProblem p = nk::prepare_standin(name, scale, 7, gpu_sim);
  std::cout << "problem " << p.name << ": n=" << p.a->size()
            << " nnz=" << p.a->csr_fp64().nnz() << (p.symmetric ? " symmetric" : " nonsymmetric")
            << (gpu_sim ? " [GPU-sim: SELL-32 + SD-AINV]" : " [CPU: CSR + block-Jacobi ILU/IC]")
            << "\n";

  auto m = nk::registry().make_precond(nk::parse_precond_spec(gpu_sim ? "sd-ainv" : "bj"), p);

  nk::Table table({"solver", "converged", "outer-its", "M-applies", "time[s]", "relres"});
  auto add = [&](const nk::SolveResult& r) {
    table.add_row({r.solver, r.converged ? "yes" : "NO", nk::Table::fmt_int(r.iterations),
                   nk::Table::fmt_int(static_cast<long long>(r.precond_invocations)),
                   nk::Table::fmt(r.seconds, 4), nk::Table::fmt_sci(r.final_relres)});
  };

  // The three F3R precision configurations.
  for (nk::Prec prec : {nk::Prec::FP64, nk::Prec::FP32, nk::Prec::FP16})
    add(nk::Session(nk::borrow_problem(p), nk::f3r_config(prec), nk::f3r_termination(rtol), m)
            .solve());

  // The paper's conventional baselines with fp64/fp32/fp16 preconditioners
  // ("krylov" = CG when symmetric, BiCGStab otherwise).
  auto flat = [&](const char* kind, nk::Prec st) {
    nk::SolverSpec s = nk::parse_solver_spec(kind);
    s.prec = st;
    s.rtol = rtol;
    s.max_iters = max_iters;
    return nk::Session(nk::borrow_problem(p), s, m).solve();
  };
  for (nk::Prec st : {nk::Prec::FP64, nk::Prec::FP32, nk::Prec::FP16}) {
    add(flat("krylov", st));
    add(flat("fgmres64", st));
  }

  table.print(std::cout);
  return 0;
}
