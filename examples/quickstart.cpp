// Quickstart: solve an HPCG-style Poisson problem with fp16-F3R.
//
// Demonstrates the complete public API path:
//   1. generate (or load) a matrix,
//   2. prepare the problem (diagonal scaling + RHS),
//   3. name the solver configuration as a spec string,
//   4. build a Session (preconditioner + solver from the spec) and solve.
//
// Run:  ./quickstart [--l=5] [--spec=f3r@fp16] [--rtol=1e-8]
#include <cstdio>
#include <iostream>

#include "base/env.hpp"
#include "base/options.hpp"
#include "core/session.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/stats.hpp"

int main(int argc, char** argv) {
  nk::Options opt(argc, argv);
  if (opt.wants_help()) {
    std::cout << "usage: quickstart [--l=5] [--prec=fp16] [--spec=f3r@fp16] [--rtol=1e-8]\n";
    return 0;
  }
  const int l = opt.get_int("l", 5);             // grid is 2^l per axis
  // --prec is folded into the default spec; validate it under its own name
  // so a bad value is not reported against a --spec the user never typed.
  const std::string prec = opt.get("prec", "fp16");
  if (opt.has("prec")) {
    try {
      nk::parse_prec(prec);
    } catch (const std::invalid_argument&) {
      std::cerr << "error: invalid value '" << prec << "' for --prec (fp64|fp32|fp16)\n";
      return 2;
    }
  }
  const std::string spec_text = opt.get("spec", "f3r@" + prec);
  const double rtol = opt.get_double("rtol", 0.0);
  opt.reject_unknown();

  std::cout << "nkrylov quickstart (" << nk::env_summary() << ")\n";

  // 1. The HPCG 27-point stencil matrix on a (2^l)^3 grid.
  nk::CsrMatrix<double> a = nk::gen::hpcg(l, l, l);
  std::cout << "matrix " << nk::gen::stencil_name("hpcg", l, l, l) << ": "
            << nk::stats_summary(nk::analyze(a)) << "\n";

  // 2. Diagonal scaling + uniform-[0,1) right-hand side (the paper's setup).
  nk::PreparedProblem p = nk::prepare_problem("hpcg", std::move(a), /*symmetric=*/true,
                                              /*alpha_ilu=*/1.0, /*alpha_ainv=*/1.0,
                                              /*rhs_seed=*/7);

  // 3.+4. One spec string names the whole stack — F3R at the requested
  // lowest precision over the default block-Jacobi IC(0); Session builds
  // the preconditioner and solver from it.
  nk::SolverSpec spec = nk::parse_solver_spec_cli("spec", spec_text);
  if (opt.has("rtol")) spec.rtol = rtol;
  nk::Session session(std::move(p), spec);
  std::cout << "spec " << spec.to_string() << " -> solver " << session.solver_name()
            << ", M = " << session.precond().name() << "\n";

  nk::SolveResult res = session.solve();
  std::cout << summarize(res) << "\n";
  if (!res.history.empty()) {
    std::cout << "residual history (outer iterations):";
    for (std::size_t i = 0; i < res.history.size(); i += std::max<std::size_t>(1, res.history.size() / 8))
      std::printf(" %.1e", res.history[i]);
    std::printf(" ... %.1e\n", res.history.back());
  }
  return res.converged ? 0 : 1;
}
